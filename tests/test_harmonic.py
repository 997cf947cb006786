import gc
import hashlib
import math
import weakref
from fractions import Fraction

import numpy as np
import pytest

import oracles
from hyperharm import harmonic
from hyperharm.geometry import PiRational, monomial_sphere_integral, sphere_quadrature
from hyperharm.harmonic import (
    addition_theorem_eval,
    count_harmonic,
    count_homogeneous,
    harmonic_basis_raw,
    legendre_harmonic,
    orthonormalize,
)
from hyperharm.legendre import dimension_shift, legendre_eval
from hyperharm.polyalg import CHUNK_ELEMENTS, ExactPolynomial, _degree_rows, evaluate_monomials, random_orthogonal


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


def _multiple(a, b):
    """The rational c with a == c * b, or None."""
    key = next(iter(b.terms), None)
    c = a.terms.get(key, Fraction(0)) / b.terms[key] if key else Fraction(0)
    return c if c and a == b * c else None


@pytest.mark.parametrize("p, n", [(2, 7), (3, 7), (4, 6), (5, 5), (6, 4)])
def test_raw_basis_matches_the_slice_recursion(p, n):
    # member by member and in order: each member is the oracle's times a positive rational
    got, want = harmonic_basis_raw(p, n), oracles.slice_recursion_basis(p, n)
    assert len(got) == len(want) == count_harmonic(p, n)
    for i, (member, reference) in enumerate(zip(got, want)):
        c = _multiple(member, reference)
        assert c is not None and c > 0, i
        assert all(v.denominator == 1 for v in member.terms.values())


@pytest.mark.parametrize("p", range(2, 7))
def test_members_are_the_gelfand_tsetlin_harmonics(p):
    # member (j, h) is a rational multiple of h(x') r^(n-j) P_{n-j,p+2j}(x_p / r),
    # the paper's theorem, with P from the dimension shift of the Legendre table
    squares = (ExactPolynomial.monomial(p, [2 * (i == k) for i in range(p)]) for k in range(p))
    r_sq = sum(squares, ExactPolynomial.zero(p))
    for n in range(7):
        members = iter(harmonic_basis_raw(p, n))
        for j in range(n + 1):
            lower = ([ExactPolynomial.monomial(1, (j,))] if j < 2 else []) if p == 2 else harmonic_basis_raw(p - 1, j)
            profile = dimension_shift(p, n, j).coeffs
            zonal = sum((ExactPolynomial.monomial(p, (0,) * (p - 1) + (k,), a) * r_sq ** ((n - j - k) // 2)
                         for k, a in enumerate(profile) if a), ExactPolynomial.zero(p))
            for h in lower:
                lifted = ExactPolynomial(p, {g + (0,): c for g, c in h.terms.items()})
                assert _multiple(next(members), lifted * zonal) is not None, (n, j)
        assert next(members, None) is None


def _assert_gram_is_the_stored_diagonal(p, n):
    """The full sphere Gram of the raw members, summed monomial by monomial in Python
    integers by the oracle, is diag(gram_blocks): positive integers, exactly 0 off it.  The
    diagonal is `_norms`', from no matrix."""
    norms = harmonic._norms(p, n)
    assert orthonormalize(p, n).gram_blocks == norms
    assert len(norms) == count_harmonic(p, n) and all(type(v) is int and v > 0 for v in norms)
    blocks = list(oracles.object_gram_blocks(p, n, harmonic_basis_raw(p, n)))
    assert sorted(i for indices, _ in blocks for i in indices) == list(range(len(norms)))
    for indices, block in blocks:
        assert block == tuple(tuple(norms[i] if i == k else 0 for k in indices) for i in indices)


def test_raw_basis_is_linearly_independent():
    # a positive diagonal Gram of the members themselves has full rank
    for p in (2, 3, 4, 5):
        for n in range(0, 6):
            _assert_gram_is_the_stored_diagonal(p, n)


def test_orthonormality_under_surface_measure():
    for p in (2, 3, 4):
        for n in range(0, 5):
            basis = orthonormalize(p, n)
            rule = sphere_quadrature(p, 2 * n)
            vals = basis.evaluate_members(rule.nodes)
            gram = vals.T @ (rule.weights[:, None] * vals)
            eye = np.eye(len(basis.members))
            assert np.max(np.abs(gram - eye)) <= 1e-10, (p, n)


@pytest.mark.parametrize(
    "p, n", [(p, n) for p in (2, 3, 4) for n in range(0, 5)] + [(5, 3), (3, 7)]
)
def test_exact_gram_matches_monomial_integrals(p, n):
    raw = harmonic_basis_raw(p, n)
    basis = orthonormalize(p, n)
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
            assert expected == (basis.gram_scale * basis.gram_blocks[i] if i == j else 0), (i, j)


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


@pytest.mark.parametrize("p, n", [(2, 5), (3, 4), (4, 3), (6, 3)])
def test_members_are_built_on_demand_from_their_rows(monkeypatch, p, n):
    built = []

    class Counting(harmonic.FloatPolynomial):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(harmonic, "FloatPolynomial", Counting)
    basis = orthonormalize(p, n)  # a fresh basis, none of its members built
    members = basis.members
    assert len(members) == count_harmonic(p, n) and not built
    want = oracles.dense_row_terms(basis.exponents, basis.coeffs)
    for i in range(len(members)):
        assert type(members[i]) is Counting and len(built) == i + 1
        # the same terms in the same order, each coefficient the matrix entry bit for bit
        assert list(members[i].terms.items()) == list(want[i].items()), (p, n, i)
        assert members[i] is members[i] and members[i - len(members)] is members[i]
    assert len(built) == len(members)  # every member built once, through FloatPolynomial
    assert members[-1] is members[len(members) - 1]
    assert members[1:4] == tuple(members[i] for i in range(1, min(4, len(members))))
    assert members[::-2] == tuple(members[i] for i in range(len(members) - 1, -1, -2))
    assert tuple(members) == members[:] and members[len(members):] == ()
    for index in (len(members), -len(members) - 1):
        with pytest.raises(IndexError):
            members[index]
    assert len(built) == len(members)
    # the exact members come from the same helper over the integer matrix
    matrix = harmonic._as(harmonic._members(p, n)[0], object)
    want = oracles.dense_row_terms(basis.exponents, matrix)
    assert [member.terms for member in harmonic_basis_raw(p, n)] == want


NORM_CASES = [(p, n) for p in range(2, 6) for n in range(13)] + [(p, n) for p in (6, 7) for n in range(9)]


def test_norms_are_the_fischer_norms_of_the_integer_members():
    # sum_alpha alpha! c_alpha^2 over each row of the integer matrix, which `_norms` never builds
    for p, n in NORM_CASES:
        matrix, alphas = harmonic._as(harmonic._members(p, n)[0], object), _degree_rows(p, n).tolist()
        want = [0] * count_harmonic(p, n)
        for i, k in zip(*np.nonzero(matrix)):
            want[i] += matrix[i, k] ** 2 * math.prod(map(math.factorial, alphas[k]))
        assert harmonic._norms(p, n) == tuple(want) == orthonormalize(p, n).gram_blocks, (p, n)


@pytest.mark.parametrize("first", ["coeffs", "member"])
def test_orthonormalize_builds_the_gram_alone(monkeypatch, first):
    p, n = 6, 7

    def no_build(*args):
        raise AssertionError("a coefficient matrix was built")

    monkeypatch.setattr(harmonic, "_ladder", no_build)
    monkeypatch.setattr(harmonic, "_members", no_build)
    basis = orthonormalize(p, n)  # a fresh basis
    assert len(basis.members) == count_harmonic(p, n) == len(basis.gram_blocks)
    assert basis.gram_scale == orthonormalize(p, n).gram_scale
    xi = np.eye(p)[0]
    assert basis.evaluate_members(xi).shape == (1, count_harmonic(p, n))
    assert abs(addition_theorem_eval(basis, xi, xi) - legendre_eval(p, n, 1.0)) <= 1e-10
    monkeypatch.undo()
    built, members = [], harmonic._members
    monkeypatch.setattr(harmonic, "_members", lambda *args: built.append(args) or members(*args))
    if first == "member":
        basis.members[3]
        assert built.count((p, n)) == 1
    coeffs = basis.coeffs
    assert basis.coeffs is coeffs and basis.members[3] is basis.members[3] and built.count((p, n)) == 1
    assert not coeffs.flags.writeable and coeffs.tobytes() == orthonormalize(p, n).coeffs.tobytes()
    assert basis.exponents is _degree_rows(p, n)


def test_basis_caches_are_bounded():
    # the exponent rows, the norms, the ladder rungs and the recurrence plans that bases are built and evaluated from
    for cached in (_degree_rows, harmonic._norms, harmonic._ladder, harmonic._plan):
        maxsize = cached.cache_info().maxsize
        assert maxsize is not None and 0 < maxsize <= 4096
    assert _degree_rows(5, 4) is _degree_rows(5, 4) and not _degree_rows(5, 4).flags.writeable


def test_transform_tables_are_read_only_and_bounded():
    # one entry per (p, n_max, degree), shared by every projection on that rule
    maxsize = harmonic._transform_tables.cache_info().maxsize
    assert maxsize is not None and 2 <= maxsize <= 8
    circle, levels = harmonic._transform_tables(4, 6, 40)
    assert harmonic._transform_tables(4, 6, 40)[0] is circle
    assert circle.shape == (42, 13) and [factors.shape for _, factors in levels] == [(49, 21), (140, 21)]
    for table in (circle,) + tuple(factors for _, factors in levels):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 1.0
    for n_max in range(maxsize + 2):
        harmonic._transform_tables(3, n_max, 8)
    assert harmonic._transform_tables.cache_info().currsize == maxsize


def test_a_dropped_basis_is_freed():
    basis = orthonormalize(5, 6)
    basis.members[0]  # builds the coefficients too
    refs = weakref.ref(basis), weakref.ref(basis.coeffs)
    del basis
    gc.collect()  # the members and the basis refer to each other
    assert [ref() for ref in refs] == [None, None]
    raw = harmonic_basis_raw(5, 6)
    assert raw == harmonic_basis_raw(5, 6) and raw is not harmonic_basis_raw(5, 6)


# each id keeps its case's size label: how many 26-bit primes the Gram took
# when it was computed on residues (one, several, over 30)
GRAM_PRODUCT_CASES = [(2, 0, "one")] + [(5, n, "one") for n in range(5)] + [
    (6, 8, "several"), (5, 12, "several"), (3, 40, "several"), (2, 60, "over 30")]


@pytest.mark.parametrize("p, n", [pytest.param(p, n, id=f"{p}-{n}-{size}") for p, n, size in GRAM_PRODUCT_CASES])
def test_modular_gram_matches_the_object_integer_product(p, n):
    _assert_gram_is_the_stored_diagonal(p, n)


CLASS_ROW_CASES = [(p, n) for p in range(2, 8) for n in range(9)] + [(5, 12), (3, 40), (2, 60), (4, 10), (9, 5)]


@pytest.mark.parametrize("p, n", CLASS_ROW_CASES)
def test_class_rows_match_the_per_member_closed_form(p, n):
    # each j's rows, built as one matrix from the ladder |x'|^2s h, against one
    # member and one term at a time; Fischer norms as exact Python integers
    def lower(j):
        if p == 2:
            return [{(j,): 1}] if j < 2 else []
        return [{a: int(c) for a, c in h.terms.items()} for h in harmonic_basis_raw(p - 1, j)]

    matrix, norms = harmonic._members(p, n)
    monos = list(map(tuple, _degree_rows(p, n).tolist()))
    want = list(oracles.closed_form_members(p, n, lower))
    assert matrix.shape == (count_harmonic(p, n), len(monos)) == (len(want), len(monos))
    for row, norm, (terms, want_norm) in zip(harmonic._as(matrix, object).tolist(), norms, want):
        assert {monos[k]: v for k, v in enumerate(row) if v} == terms
        assert type(norm) is int and norm == want_norm


# sha256 prefixes of repr(gram_blocks), repr(gram_scale) and coeffs.tobytes();
# the Gram side is Python integers and rationals, the same on every platform
BASIS_DIGESTS = {
    (6, 8): ("145e0550e0070a40", "9bd67e66f5e8018d", "1ec9ebc4d9ce4695"),
    (7, 8): ("c59f24d9fad9543b", "100ab99024cd671d", "1d067d61e050ac43"),
    (5, 12): ("23f54755a8a2b503", "71da3eab5c3dfc21", "b92cf3e95f2650e9"),
    (3, 40): ("7688691a045f7bfd", "4904b3c7fc39cf5c", "6d213a705631f860"),
    (2, 60): ("8bbf36a30d064767", "a1a5b37f826f36ee", "e9b7ecd24a25ba44"),
    (9, 5): ("cfc8c85ee9880321", "68bc6d9943e54ea7", "dc955b450eca8183"),
    (4, 10): ("a53e0c2fe6848ec4", "c50dd3253ee3da26", "c448c3c965306c93"),
}


@pytest.mark.parametrize("p, n", list(BASIS_DIGESTS))
def test_basis_bytes_are_pinned(p, n):
    basis = orthonormalize(p, n)
    parts = repr(basis.gram_blocks).encode(), repr(basis.gram_scale).encode(), basis.coeffs.tobytes()
    assert tuple(hashlib.sha256(part).hexdigest()[:16] for part in parts) == BASIS_DIGESTS[p, n]


def _rule_gram_error(basis, members=slice(None)):
    """max |G - I| for the chosen members on the degree-(2n + 2) product rule, summed chunk by chunk."""
    rule = sphere_quadrature(basis.p, 2 * basis.n + 2)
    gram = 0.0
    for rows, vals in harmonic.harmonic_chunks(rule.nodes, basis.p, basis.n, basis.n):
        vals = vals[members]
        gram = gram + vals @ (rule.weights[rows, None] * vals.T)
    return np.max(np.abs(gram - np.eye(len(gram))))


def test_high_degree_bases_stay_orthonormal():
    # the power-basis rows read 3.7e-12 at (3, 40) and 3.0e-9 at (3, 60), and the
    # float Cholesky before them 1.0e-6 at (3, 40)
    for p, n in ((3, 40), (3, 60), (3, 80), (2, 400)):
        basis = orthonormalize(p, n)
        assert basis.coeffs.shape == (count_harmonic(p, n), count_homogeneous(p, n))
        assert _rule_gram_error(basis) <= 1e-13, (p, n)
    # every 8th member at (4, 30), on the 65,536-node rule
    assert _rule_gram_error(orthonormalize(4, 30), slice(None, None, 8)) <= 1e-13


def test_stored_support_is_the_exact_support():
    # no stored coefficient is rounding noise where the exact one is 0
    for p in range(2, 7):
        for n in range(9):
            basis = orthonormalize(p, n)
            monos = {tuple(a): k for k, a in enumerate(basis.exponents.tolist())}
            exact = np.zeros(basis.coeffs.shape, dtype=bool)
            for i, member in enumerate(harmonic_basis_raw(p, n)):
                exact[i, [monos[a] for a in member.terms]] = True
            assert np.array_equal(basis.coeffs != 0, exact), (p, n)


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
    e = np.array([1.0, 0.0, 0.0])
    for xi, eta in ((np.array([np.nan, 0.0, 0.0]), e), (e, np.full(3, np.nan))):
        with pytest.raises(ValueError, match="on the unit sphere"):
            addition_theorem_eval(basis, xi, eta)


def _raw_rows(raw, basis):
    """The raw members' exact coefficients, rounded, over the basis's monomials."""
    column = {tuple(int(a) for a in alpha): k for k, alpha in enumerate(basis.exponents)}
    rows = np.zeros(basis.coeffs.shape)
    for i, member in enumerate(raw):
        rows[i, [column[a] for a in member.terms]] = [float(c) for c in member.terms.values()]
    return rows


@pytest.mark.parametrize(
    "p, n", [(p, n) for p in (2, 3, 4, 5) for n in range(0, 6)] + [(6, 4)]
)
def test_float_stage_consumes_the_rounded_exact_gram(p, n):
    # the exact Gram is diagonal, and each coefficient row is its raw member
    # over the square root of its correctly rounded diagonal entry, bit for bit
    basis = orthonormalize(p, n)
    _assert_gram_is_the_stored_diagonal(p, n)
    diagonal = np.array([float(basis.gram_scale * v) for v in basis.gram_blocks])
    expected = _raw_rows(harmonic_basis_raw(p, n), basis) / np.sqrt(diagonal)[:, None]
    assert np.array_equal(basis.coeffs, expected), (p, n)


def test_orthonormal_coefficients_match_the_triangular_solve():
    # LAPACK's Cholesky and triangular solve on the rounded exact Gram give the
    # same rows, and store no nonzero that the diagonal division does not
    solve_triangular = pytest.importorskip("scipy.linalg").solve_triangular
    for p in range(2, 7):
        for n in range(9):
            basis = orthonormalize(p, n)
            block = np.diag([float(basis.gram_scale * v) for v in basis.gram_blocks])
            rows = _raw_rows(harmonic_basis_raw(p, n), basis)
            expected = solve_triangular(np.linalg.cholesky(block), rows, lower=True)
            assert np.max(np.abs(basis.coeffs - expected)) <= 1e-15 * np.max(np.abs(expected)), (p, n)
            assert np.count_nonzero(basis.coeffs) == np.count_nonzero(expected)


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


@pytest.mark.parametrize("p", range(2, 7))
def test_evaluator_matches_the_power_basis_rows(p):
    # every member of degree <= 8 in one call, against the coefficient rows each basis keeps
    rng = np.random.default_rng(40 + p)
    pts = rng.normal(size=(30, p))
    pts *= (rng.random(30) ** 0.5 / np.linalg.norm(pts, axis=1))[:, None]
    got = np.hstack([values for _, values in harmonic.harmonic_chunks(pts, p, 8)])
    start = 0
    for n in range(9):
        basis = orthonormalize(p, n)
        want = evaluate_monomials(pts, basis.exponents, basis.coeffs)
        block = got[start : start + len(basis.coeffs)].T
        assert np.max(np.abs(block - want)) <= 1e-13 * np.max(np.abs(basis.coeffs)), (p, n)
        start += len(basis.coeffs)
    assert start == len(got)


def test_matrix_evaluation_across_a_chunk_boundary():
    basis = orthonormalize(4, 6)
    pts = np.random.default_rng(32).normal(size=(CHUNK_ELEMENTS // 100, 4))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    assert len(list(harmonic.harmonic_chunks(pts, 4, 6, 6))) > 1
    _assert_matrix_evaluation_matches(basis, pts)
