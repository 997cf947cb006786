import hashlib
import json
from fractions import Fraction

import numpy as np
import pytest

import oracles
from hyperharm import harmonic
from hyperharm.geometry import PiRational, monomial_sphere_integral, sphere_quadrature
from hyperharm.harmonic import (
    RANK_PRIME,
    addition_theorem_eval,
    count_harmonic,
    count_homogeneous,
    exact_rank,
    harmonic_basis_raw,
    legendre_harmonic,
    orthonormalize,
)
from hyperharm.legendre import legendre_eval
from hyperharm.polyalg import CHUNK_ELEMENTS, random_orthogonal


def test_homogeneous_count_matches_enumeration():
    for p in range(1, 6):
        for n in range(0, 8):
            assert count_homogeneous(p, n) == oracles.monomial_count(p, n)


def test_harmonic_count_recursion():
    # the space splits into pieces indexed by monomial spaces one dimension
    # down, giving K(p-1, n) + K(p-1, n-1)
    for p in range(3, 7):
        for n in range(1, 8):
            assert count_harmonic(p, n) == count_homogeneous(
                p - 1, n
            ) + count_homogeneous(p - 1, n - 1)
    assert count_harmonic(3, 2) == 5
    assert count_harmonic(4, 3) == 16
    for p in range(2, 6):
        assert count_harmonic(p, 0) == 1
        assert count_harmonic(p, 1) == p


def test_count_validation():
    with pytest.raises(ValueError):
        count_harmonic(0, 2)
    with pytest.raises(ValueError):
        count_homogeneous(3, -1)


def test_raw_basis_members_are_harmonic_and_homogeneous():
    for p in (2, 3, 4):
        for n in range(0, 6):
            members = harmonic_basis_raw(p, n)
            assert len(members) == count_harmonic(p, n)
            for q in members:
                assert q.degree() == n
                assert q.is_homogeneous() == n
                assert q.laplacian().is_zero()


@pytest.mark.parametrize("p, n", [(2, 7), (3, 7), (4, 6), (5, 5), (6, 4)])
def test_raw_basis_matches_the_slice_recursion(p, n):
    # member by member and in order: the Cholesky orthonormalization takes
    # the members in index order, so every output byte depends on it
    assert list(harmonic_basis_raw(p, n)) == oracles.slice_recursion_basis(p, n)


def test_raw_basis_is_linearly_independent():
    for p in (2, 3, 4, 5):
        for n in range(0, 6):
            basis = orthonormalize(p, n)
            assert exact_rank(basis.gram_exact) == count_harmonic(p, n)


def test_orthonormality_under_surface_measure():
    for p in (2, 3, 4):
        for n in range(0, 5):
            basis = orthonormalize(p, n)
            rule = sphere_quadrature(p, 2 * n)
            vals = basis.evaluate_members(rule.nodes)
            gram = vals.T @ (rule.weights[:, None] * vals)
            eye = np.eye(len(basis.members))
            assert np.max(np.abs(gram - eye)) <= 1e-10, (p, n)


def _parities(poly):
    return {tuple(a % 2 for a in alpha) for alpha in poly.terms}


@pytest.mark.parametrize(
    "p, n", [(p, n) for p in (2, 3, 4) for n in range(0, 5)] + [(5, 3), (3, 7)]
)
def test_exact_gram_matches_monomial_integrals(p, n):
    raw = harmonic_basis_raw(p, n)
    gram = orthonormalize(p, n).gram_exact
    integrals = {}
    for i, u in enumerate(raw):
        for j, v in enumerate(raw):
            expected = PiRational(Fraction(0))
            for alpha, c in u.terms.items():
                for beta, d in v.terms.items():
                    gamma = tuple(a + b for a, b in zip(alpha, beta))
                    if gamma not in integrals:
                        integrals[gamma] = monomial_sphere_integral(gamma)
                    expected = expected + integrals[gamma] * (c * d)
            entry = gram[i][j]
            assert type(entry) is PiRational
            assert entry == expected, (i, j)
            if _parities(u) != _parities(v):
                assert entry.coeff == 0, (i, j)


def test_orthonormality_and_parity_in_dimensions_five_and_six():
    for p in (5, 6):
        for n in range(0, 7):
            basis = orthonormalize(p, n)
            rule = sphere_quadrature(p, 2 * n)
            vals = basis.evaluate_members(rule.nodes)
            gram = vals.T @ (rule.weights[:, None] * vals)
            eye = np.eye(len(basis.coeffs))
            assert np.max(np.abs(gram - eye)) <= 1e-12, (p, n)
            for row in basis.coeffs:
                parities = basis.exponents[np.nonzero(row)[0]] % 2
                assert len(np.unique(parities, axis=0)) == 1, (p, n)


def test_orthonormalize_is_cached():
    assert orthonormalize(3, 4) is orthonormalize(3, 4)
    assert harmonic_basis_raw(4, 3) is harmonic_basis_raw(4, 3)


def test_basis_caches_are_bounded():
    for cached in (orthonormalize, harmonic_basis_raw):
        maxsize = cached.cache_info().maxsize
        assert maxsize is not None and 0 < maxsize < 100
    # a p=4 session up to degree 6 keeps all seven of its bases
    first = [orthonormalize(4, n) for n in range(7)]
    assert all(orthonormalize(4, n) is basis for n, basis in enumerate(first))


def _gram_classes(p, n):
    """_gram_blocks one class at a time, in basis order: (indices, monomials, float rows, denominators, s)."""
    blocks = [
        (tuple(i), list(map(tuple, m)), rows, (den,) * len(i), tuple(map(tuple, s)))
        for indices, monos, float_rows, den, stack in harmonic._gram_blocks(p, n)
        for i, m, rows, s in zip(indices.tolist(), monos.tolist(), float_rows, stack.tolist())
    ]
    return sorted(blocks, key=lambda block: block[0])


CLASS_ROW_CASES = [(p, n) for p in range(2, 8) for n in range(9)] + [(5, 12), (3, 40), (2, 60), (4, 10), (9, 5)]


@pytest.mark.parametrize("p, n", CLASS_ROW_CASES)
def test_class_rows_match_the_per_member_closed_form(p, n):
    classes = {}
    for idx, (parity, terms, den) in enumerate(oracles.raw_rows(p, n)):
        classes.setdefault(parity, []).append((idx, terms, den))
    want = {}
    for members in classes.values():
        indices, member_terms, dens = zip(*members)
        monos = sorted({a for terms in member_terms for a in terms})
        want[indices] = monos, [[terms.get(a, 0) for a in monos] for terms in member_terms], set(dens)
    got = {}
    for indices, monos, b, den in harmonic._class_rows(p, n):
        assert indices.shape == b.shape[:2] and monos.shape == (len(b), b.shape[2], p)
        for idx, class_monos, rows in zip(indices.tolist(), monos.tolist(), b.tolist()):
            assert all(type(v) is int for row in rows for v in row)
            got[tuple(idx)] = list(map(tuple, class_monos)), rows, {den}
    assert got == want


@pytest.mark.parametrize(
    "p, n, primes",
    [(2, 0, "one")] + [(5, n, "one") for n in range(5)]
    + [(6, 8, "several"), (5, 12, "several"), (3, 40, "several"), (2, 60, "over 30")],
)
def test_modular_gram_matches_the_object_integer_product(monkeypatch, p, n, primes):
    moduli = set()
    mod_matmul = harmonic._mod_matmul

    def recording(a, b, q):
        moduli.add(q)
        return mod_matmul(a, b, q)

    monkeypatch.setattr(harmonic, "_mod_matmul", recording)
    got = _gram_classes(p, n)
    want = list(oracles.object_gram_blocks(p, n, oracles.raw_rows(p, n)))
    assert len(got) == len(want)
    for (gi, gm, grows, gd, gs), (wi, wm, wrows, wd, ws) in zip(got, want):
        assert (gi, gm, gd) == (wi, wm, wd)
        assert grows.dtype == wrows.dtype and grows.tobytes() == wrows.tobytes()
        assert gs == ws
        assert all(type(v) is int for row in gs for v in row)
    assert all(q < 2**26 for q in moduli)
    count = {"one": len(moduli) == 1, "several": 1 < len(moduli) <= 30, "over 30": len(moduli) > 30}
    assert count[primes], len(moduli)


def test_modular_gram_lifts_signed_entries(monkeypatch):
    # every Gram entry of the bases at p <= 6, n <= 8 is nonnegative; class
    # members times their own signed integers of about 100 bits keep their
    # seeds and give negative entries over several primes
    rng = np.random.default_rng(11)
    [(indices, monos, b, den)] = [group for group in harmonic._class_rows(3, 6) if not (group[1] % 2).any()]
    high, low = rng.integers(-(2**30), 2**30, size=(2, b.shape[1])).tolist()
    b = b * np.array([h * 2**70 + lo for h, lo in zip(high, low)], dtype=object)[:, None]
    rows = [((0, 0, 0), {a: c for a, c in zip(map(tuple, monos[0].tolist()), row) if c}, 1) for row in b[0].tolist()]
    moduli = set()
    mod_matmul = harmonic._mod_matmul
    monkeypatch.setattr(harmonic, "_mod_matmul", lambda a, b, q: moduli.add(q) or mod_matmul(a, b, q))
    monkeypatch.setattr(harmonic, "_class_rows", lambda p, n: iter([(np.arange(b.shape[1])[None], monos, b, 1)]))
    [(_, _, _, _, got)] = _gram_classes(3, 6)
    [(_, _, _, _, want)] = oracles.object_gram_blocks(3, 6, rows)
    assert got == want
    assert min(min(row) for row in want) < 0
    assert len(moduli) > 1


def test_singular_gram_block_is_refused(monkeypatch):
    groups = list(harmonic._class_rows(5, 4))
    at = next(i for i, (_, _, b, _) in enumerate(groups) if b.shape[1] > 2)
    indices, monos, b, den = groups[at]
    # one member twice in its parity class; the exact sum of two members in place of a third
    for dependent in (b[0, 0], b[0, 0] + b[0, 2]):
        changed = b.copy()
        changed[0, 1] = dependent
        stacks = groups[:at] + [(indices, monos, changed, den)] + groups[at + 1 :]
        monkeypatch.setattr(harmonic, "_class_rows", lambda p, n: iter(stacks))
        with pytest.raises(RuntimeError, match="singular"):
            orthonormalize.__wrapped__(5, 4)


# sha256 prefixes of repr(gram_blocks), repr(gram_scale) and coeffs.tobytes();
# the Gram side is Python integers and rationals, the same on every platform
BASIS_DIGESTS = {
    (6, 8): ("e998797d7c357ce2", "9bd67e66f5e8018d", "7736046fbb60e6a9"),
    (7, 8): ("5ff3fdf125c93edb", "100ab99024cd671d", "9df2a9ae0f0975ca"),
    (5, 12): ("27e43fff5c7c30c7", "71da3eab5c3dfc21", "96ea9ad64b198311"),
    (3, 40): ("30b961ef4ea4c986", "4904b3c7fc39cf5c", "0139f5cba47ccb47"),
    (2, 60): ("ca9af16f69bd7dfe", "a1a5b37f826f36ee", "633979e3dd6006b4"),
    (9, 5): ("668dea897e76b60f", "68bc6d9943e54ea7", "9d69a213260b49c3"),
    (4, 10): ("2441a673bea2e263", "c50dd3253ee3da26", "ba72be6fbcfa6f09"),
}


@pytest.mark.parametrize("p, n", list(BASIS_DIGESTS))
def test_basis_bytes_are_pinned(p, n):
    basis = orthonormalize(p, n)
    parts = repr(basis.gram_blocks).encode(), repr(basis.gram_scale).encode(), basis.coeffs.tobytes()
    assert tuple(hashlib.sha256(part).hexdigest()[:16] for part in parts) == BASIS_DIGESTS[p, n]


def test_ill_conditioned_gram_block_is_an_input_error():
    # certified nonsingular, but from n = 57 at p = 3 a block's float Gram
    # has condition number above 1e16 and no Cholesky factor
    with pytest.raises(ValueError, match="beyond the float orthonormalization"):
        orthonormalize(3, 60)


def test_modular_product_sums_long_rows_in_slices():
    # 5000 products of residues near 2^26 sum to about 2^64.3, past int64
    q = 2**26 - 5
    rng = np.random.default_rng(7)
    a = rng.integers(q - 1000, q, size=(2, 5000))
    b = rng.integers(q - 1000, q, size=(5000, 3))
    want = [[sum(int(x) * int(y) for x, y in zip(row, col)) % q for col in b.T] for row in a]
    assert 5000 * (q - 1000) ** 2 >= 2**63  # one unsliced int64 sum would overflow
    assert harmonic._mod_matmul(a, b, q).tolist() == want


def test_zonal_member_matches_one_dimensional_profile():
    rng = np.random.default_rng(21)
    for p in (3, 4, 5):
        for n in range(0, 6):
            zonal = legendre_harmonic(p, n)
            assert zonal.laplacian().is_zero()
            assert zonal.degree() == n
            pts = rng.normal(size=(20, p))
            norms = np.linalg.norm(pts, axis=1)
            want = norms**n * legendre_eval(p, n, pts[:, 0] / norms)
            got = zonal.to_float().evaluate_array(pts)
            assert np.max(np.abs(got - want)) <= 1e-10 * max(
                1.0, np.max(norms) ** n
            ), (p, n)
            e1 = [Fraction(0)] * p
            e1[0] = Fraction(1)
            assert zonal.evaluate(e1) == 1


def test_addition_theorem_against_zonal_profile():
    rng = np.random.default_rng(33)
    for p in (3, 4, 5):
        for n in range(0, 7):
            basis = orthonormalize(p, n)
            for _ in range(20):
                xi = oracles.unit_vectors(rng, p, 1)[0]
                eta = oracles.unit_vectors(rng, p, 1)[0]
                got = addition_theorem_eval(basis, xi, eta)
                want = legendre_eval(p, n, float(xi @ eta))
                assert abs(got - want) <= 1e-9, (p, n)


def test_addition_theorem_diagonal_value():
    # summing the squares of an orthonormal basis at one point gives N / Omega
    # times the solid angle factor built into the normalization, so the
    # normalized sum collapses to the profile at t = 1, which is exactly 1
    rng = np.random.default_rng(7)
    for p in (3, 4):
        for n in (1, 3, 5):
            basis = orthonormalize(p, n)
            xi = oracles.unit_vectors(rng, p, 1)[0]
            assert addition_theorem_eval(basis, xi, xi) == pytest.approx(
                1.0, abs=1e-10
            )


def test_addition_theorem_rotation_invariance():
    rng = np.random.default_rng(55)
    for p in (3, 4):
        basis = orthonormalize(p, 4)
        xi = oracles.unit_vectors(rng, p, 1)[0]
        eta = oracles.unit_vectors(rng, p, 1)[0]
        base = addition_theorem_eval(basis, xi, eta)
        for k in range(5):
            rot = random_orthogonal(p, seed=200 + k)
            moved = addition_theorem_eval(basis, rot @ xi, rot @ eta)
            assert abs(moved - base) <= 1e-9


def test_addition_theorem_rejects_off_sphere_points():
    basis = orthonormalize(3, 2)
    with pytest.raises(ValueError):
        addition_theorem_eval(basis, np.array([1.0, 1.0, 0.0]), np.array([1.0, 0.0, 0.0]))


def test_basis_json_round_trip():
    basis = orthonormalize(3, 2)
    doc = json.loads(basis.to_json())
    assert doc["p"] == 3
    assert doc["n"] == 2
    assert len(doc["members"]) == 5
    assert len(doc["gram"]) == 5
    first = doc["members"][0]
    assert all(len(term["alpha"]) == 3 for term in first["terms"])


def test_exact_rank_oracles():
    def entry(v):
        return PiRational(Fraction(v), 2)

    assert exact_rank(((entry(1), entry(2)), (entry(2), entry(4)))) == 1
    assert exact_rank(((entry(1), entry(0)), (entry(0), entry(1)))) == 2
    assert exact_rank(((entry(0),),)) == 0


def test_exact_rank_rejects_mixed_pi_powers():
    one, pi = PiRational(Fraction(1)), PiRational(Fraction(1), 2)
    # det = 1 - pi^2 is not 0, so ranking the coefficients alone would be wrong
    with pytest.raises(ValueError):
        exact_rank(((one, pi), (pi, one)))
    with pytest.raises(ValueError):
        exact_rank(((1, pi), (pi, 1)))
    # exact zeros carry no pi power, whatever power they were built with
    zero = PiRational(Fraction(0), 3)
    assert exact_rank(((pi, zero), (0, pi))) == 2
    assert exact_rank(((pi, 0), (PiRational(Fraction(0)), 2 * pi))) == 2


def test_exact_rank_falls_back_to_exact_elimination():
    q = RANK_PRIME
    # rank 1 modulo q but 2 over Q
    assert exact_rank(((q, 0), (0, 1))) == 2
    assert exact_rank(((Fraction(1, q), 0), (0, 1))) == 2
    assert exact_rank(((q, 2 * q), (3 * q, 6 * q))) == 1
    singular = ((1, 2, 3), (4, 5, 6), (7, 8, 9))
    regular = ((2, -1, 0), (-1, 2, -1), (0, -1, 2))
    for matrix, rank in ((singular, 2), (regular, 3)):
        as_fractions = tuple(tuple(Fraction(v, 7) for v in row) for row in matrix)
        as_pi = tuple(tuple(PiRational(Fraction(v, 3), 5) for v in row) for row in matrix)
        assert exact_rank(matrix) == exact_rank(as_fractions) == exact_rank(as_pi) == rank


@pytest.mark.parametrize(
    "p, n", [(p, n) for p in (2, 3, 4, 5) for n in range(0, 6)] + [(6, 4)]
)
def test_float_stage_consumes_the_rounded_exact_gram(p, n):
    # each block of coeffs is L^-1 B for the Cholesky factor L of the
    # correctly rounded exact Gram block, bit for bit
    raw = harmonic_basis_raw(p, n)
    basis = orthonormalize(p, n)
    gram = basis.gram_exact
    column = {tuple(int(a) for a in alpha): k for k, alpha in enumerate(basis.exponents)}
    for indices, _, _ in basis.gram_blocks:
        monos = sorted({a for i in indices for a in raw[i].terms})
        rows = np.array([[float(raw[i].terms.get(a, 0)) for a in monos] for i in indices])
        block = np.array([[float(gram[i][j]) for j in indices] for i in indices])
        chol = np.linalg.cholesky(block)
        expected = np.linalg.solve(chol[::-1, ::-1], rows[::-1])[::-1]
        got = basis.coeffs[np.ix_(indices, [column[a] for a in monos])]
        assert np.array_equal(got, expected), (p, n, indices)


def test_orthonormal_coefficients_match_the_triangular_solve():
    # numpy's general solve on the reversed Cholesky factor and LAPACK's
    # triangular solve differ only in rounding, and the former stores no
    # more rounding noise where an exact coefficient is 0
    solve_triangular = pytest.importorskip("scipy.linalg").solve_triangular
    stored = stored_by_trsm = 0
    for p in range(2, 7):
        for n in range(9):
            raw = harmonic_basis_raw(p, n)
            basis = orthonormalize(p, n)
            gram = basis.gram_exact
            column = {tuple(int(a) for a in alpha): k for k, alpha in enumerate(basis.exponents)}
            for indices, _, _ in basis.gram_blocks:
                monos = sorted({a for i in indices for a in raw[i].terms})
                rows = np.array([[float(raw[i].terms.get(a, 0)) for a in monos] for i in indices])
                block = np.array([[float(gram[i][j]) for j in indices] for i in indices])
                expected = solve_triangular(np.linalg.cholesky(block), rows, lower=True)
                got = basis.coeffs[np.ix_(indices, [column[a] for a in monos])]
                err = np.max(np.abs(got - expected))
                assert err <= 1e-13 * np.max(np.abs(expected)), (p, n, indices)
                stored += np.count_nonzero(got)
                stored_by_trsm += np.count_nonzero(expected)
    assert stored <= stored_by_trsm


def _pow_reference(basis, pts):
    """Per-member evaluation with pow, one sparse polynomial at a time."""
    cols = []
    for member in basis.members:
        exps = np.array(list(member.terms), dtype=np.int64).reshape(-1, basis.p)
        coeffs = np.array(list(member.terms.values()))
        cols.append((pts[:, None, :] ** exps[None, :, :]).prod(axis=2) @ coeffs)
    return np.column_stack(cols)


def _assert_matrix_evaluation_matches(basis, pts):
    got = basis.evaluate_members(pts)
    tol = 1e-13 * np.max(np.abs(basis.coeffs))
    per_member = np.column_stack([m.evaluate_array(pts) for m in basis.members])
    assert got.shape == (len(pts), len(basis.members))
    assert np.max(np.abs(got - per_member)) <= tol, (basis.p, basis.n)
    assert np.max(np.abs(got - _pow_reference(basis, pts))) <= tol, (basis.p, basis.n)


def test_matrix_evaluation_matches_per_member_evaluation():
    rng = np.random.default_rng(31)
    cases = [(p, n) for p in range(2, 7) for n in range(7)] + [(6, 8)]
    for p, n in cases:
        basis = orthonormalize(p, n)
        assert basis.coeffs.shape == (count_harmonic(p, n), len(basis.exponents))
        assert not basis.coeffs.flags.writeable and not basis.exponents.flags.writeable
        sphere = rng.normal(size=(25, p))
        sphere /= np.linalg.norm(sphere, axis=1)[:, None]
        interior = sphere * rng.random(25)[:, None]
        _assert_matrix_evaluation_matches(basis, sphere)
        _assert_matrix_evaluation_matches(basis, interior)
        x = interior[0]
        single = basis.evaluate_members(x)
        assert single.shape == (1, len(basis.members))
        direct = [m.evaluate(x) for m in basis.members]
        assert np.max(np.abs(single[0] - direct)) <= 1e-13 * np.max(np.abs(basis.coeffs))


def test_matrix_evaluation_across_a_chunk_boundary():
    basis = orthonormalize(4, 6)
    # a basis's table is K monomials wide, and K > n, so a chunk has this many rows
    rows = CHUNK_ELEMENTS // len(basis.exponents)
    pts = np.random.default_rng(32).normal(size=(rows + 1, 4))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    _assert_matrix_evaluation_matches(basis, pts)
