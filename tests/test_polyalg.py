import itertools
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from hyperharm import polyalg
from hyperharm.polyalg import (
    ExactPolynomial,
    FloatPolynomial,
    _degree_rows,
    check_orthogonal,
    count_homogeneous,
    evaluate_monomials,
    random_orthogonal,
)


def test_terms_canonicalized_and_sorted():
    q = ExactPolynomial(
        2, {(1, 0): Fraction(2), (0, 1): Fraction(1), (2, 0): Fraction(0)}
    )
    assert list(q.terms) == [(0, 1), (1, 0)]
    assert q.degree() == 1


def test_zero_polynomial_queries():
    z = ExactPolynomial.zero(3)
    assert z.is_zero()
    assert z.degree() == -1
    assert z.is_homogeneous() == 0
    assert z.is_harmonic()


def test_float_coefficient_rejected():
    with pytest.raises(TypeError):
        ExactPolynomial(2, {(1, 0): 0.5})


def test_bad_exponents_rejected():
    with pytest.raises(ValueError):
        ExactPolynomial(2, {(-1, 0): Fraction(1)})
    with pytest.raises(ValueError):
        ExactPolynomial(2, {(1, 0, 0): Fraction(1)})


def test_ring_identities():
    x = ExactPolynomial.variable(2, 0)
    y = ExactPolynomial.variable(2, 1)
    assert (x + y) ** 2 == x * x + 2 * x * y + y * y
    assert (x - y) * (x + y) == x * x - y * y
    assert (x + y) ** 5 == (x + y) * (x + y) ** 4
    assert (x - x).is_zero()


def test_homogeneity_and_euler_operator():
    q = ExactPolynomial.monomial(3, (2, 1, 0)) + ExactPolynomial.monomial(3, (0, 0, 3))
    assert q.is_homogeneous() == 3
    assert q.euler_apply() == 3 * q
    mixed = q + ExactPolynomial.variable(3, 0)
    assert mixed.is_homogeneous() is None


def test_laplacian_oracles():
    q = ExactPolynomial.monomial(2, (2, 1)) + ExactPolynomial.monomial(2, (0, 3))
    assert q.laplacian() == ExactPolynomial.monomial(2, (0, 1), 8)
    r_sq = sum(
        ExactPolynomial.variable(3, i) ** 2 for i in range(3)
    )
    assert r_sq.laplacian() == ExactPolynomial.constant(3, 6)


def test_harmonicity_predicate():
    x = ExactPolynomial.variable(2, 0)
    y = ExactPolynomial.variable(2, 1)
    assert (x * y).is_harmonic()
    assert (x * x - y * y).is_harmonic()
    assert not (x * x).is_harmonic()


def test_partial_derivative():
    q = ExactPolynomial.monomial(2, (3, 2), Fraction(1, 2))
    assert q.partial(0) == ExactPolynomial.monomial(2, (2, 2), Fraction(3, 2))
    assert q.partial(1) == ExactPolynomial.monomial(2, (3, 1))


def test_exact_evaluation():
    q = ExactPolynomial(3, {(2, 0, 1): Fraction(1, 3), (0, 1, 0): Fraction(-2)})
    assert q.evaluate((Fraction(1), Fraction(2), Fraction(3))) == Fraction(-3)
    with pytest.raises(ValueError):
        q.evaluate((1, 2))


def test_array_evaluation_matches_pointwise():
    q = ExactPolynomial(3, {(2, 0, 1): Fraction(1, 3), (0, 1, 0): Fraction(-2)})
    rng = np.random.default_rng(20260817)
    pts = rng.normal(size=(40, 3))
    direct = np.array([float(q.evaluate(tuple(v))) for v in pts])
    assert np.allclose(q.evaluate_array(pts), direct, atol=1e-13, rtol=0)
    assert ExactPolynomial.zero(3).evaluate_array(pts).shape == (40,)


def test_json_round_trip():
    q = ExactPolynomial(2, {(1, 1): Fraction(-7, 3), (0, 0): Fraction(5)})
    assert ExactPolynomial.from_json(q.to_json()) == q


def test_json_round_trip_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def polynomials(draw):
        nvars = draw(st.integers(1, 6))
        alphas = st.tuples(*[st.integers(0, 6)] * nvars)
        # numerators past 2^64 of either sign, and exact zeros
        nums = st.integers(-(2**100), 2**100) | st.just(0)
        coeffs = st.builds(Fraction, nums, st.integers(1, 2**70))
        return nvars, draw(st.dictionaries(alphas, coeffs, max_size=8))

    @hypothesis.settings(derandomize=True, deadline=None)
    @hypothesis.given(polynomials())
    def check(drawn):
        nvars, terms = drawn
        q = ExactPolynomial(nvars, terms)
        text = q.to_json()
        assert ExactPolynomial.from_json(text) == q
        # zero coefficients are dropped, from the polynomial and from its JSON
        kept = sorted(a for a, c in terms.items() if c)
        assert sorted(q.terms) == sorted(tuple(t["alpha"]) for t in json.loads(text)["terms"]) == kept

    check()


def test_json_rejects_a_repeated_alpha_and_a_missing_field():
    # a repeated alpha would replace the earlier term: 2*x1, not 3*x1
    terms = [{"alpha": [1, 0, 0], "num": 1, "den": 1}, {"alpha": [1, 0, 0], "num": 2, "den": 1}]
    with pytest.raises(ValueError, match="term 1 repeats alpha"):
        ExactPolynomial.from_json_dict({"nvars": 3, "terms": terms})
    with pytest.raises(ValueError, match="term 0: num and den"):
        ExactPolynomial.from_json_dict({"nvars": 3, "terms": [{"alpha": [1, 0, 0], "num": 1}]})
    with pytest.raises(ValueError, match="terms must"):
        ExactPolynomial.from_json_dict({"nvars": 3})


@pytest.mark.parametrize(
    "doc",
    [[], "x", {"terms": []}, {"nvars": 2.5, "terms": []}, {"nvars": True, "terms": []},
     {"nvars": "3", "terms": []}, {"nvars": 0, "terms": []}],
)
def test_json_rejects_a_document_without_an_integer_nvars(doc):
    with pytest.raises(ValueError, match="must be a JSON object|nvars must be an integer"):
        ExactPolynomial.from_json_dict(doc)


def test_rotation_agrees_with_pointwise_composition():
    q = ExactPolynomial(3, {(2, 1, 0): Fraction(1), (0, 0, 3): Fraction(-1, 2)})
    r = random_orthogonal(3, seed=5)
    rotated = q.rotate(r)
    rng = np.random.default_rng(20260817)
    pts = rng.normal(size=(30, 3))
    assert np.allclose(
        rotated.evaluate_array(pts), q.evaluate_array(pts @ r.T), atol=1e-12
    )


def test_rotation_preserves_harmonicity_numerically():
    # x1*x2 is harmonic; rotating it must keep the Laplacian at rounding level
    q = ExactPolynomial.monomial(3, (1, 1, 0))
    rotated = q.rotate(random_orthogonal(3, seed=2))
    assert rotated.laplacian().max_abs_coeff() < 1e-14


def test_rotation_requires_orthogonal_matrix():
    q = ExactPolynomial.variable(2, 0)
    with pytest.raises(ValueError):
        q.rotate(np.array([[1.0, 0.0], [1.0, 1.0]]))
    with pytest.raises(ValueError):
        q.rotate(np.eye(3))


def test_check_orthogonal_tolerance():
    r = np.eye(3)
    assert np.array_equal(check_orthogonal(r), r)
    with pytest.raises(ValueError):
        check_orthogonal(np.eye(3) * 1.001)


def test_random_orthogonal_deterministic():
    a = random_orthogonal(4, seed=9)
    b = random_orthogonal(4, seed=9)
    c = random_orthogonal(4, seed=10)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    check_orthogonal(a)
    assert abs(abs(np.linalg.det(a)) - 1.0) < 1e-12


def test_float_polynomial_basics():
    f = FloatPolynomial(2, {(1, 0): 1.5, (0, 2): -0.5})
    assert f.degree() == 2
    assert f.max_abs_coeff() == 1.5
    assert (f - f).max_abs_coeff() == 0.0
    assert f.evaluate((2.0, 2.0)) == pytest.approx(1.0)
    pts = np.array([[2.0, 2.0], [0.0, 1.0]])
    assert np.allclose(f.evaluate_array(pts), [1.0, -0.5])


def test_exact_to_float_conversion():
    q = ExactPolynomial(2, {(1, 1): Fraction(1, 4)})
    f = q.to_float()
    assert isinstance(f, FloatPolynomial)
    assert f.terms[(1, 1)] == 0.25


def test_str_forms_are_readable():
    q = ExactPolynomial(2, {(2, 0): Fraction(3, 2), (0, 1): Fraction(-1)})
    assert str(q) == "-x2 + 3/2*x1^2"
    assert str(ExactPolynomial.zero(2)) == "0"


def test_exact_and_float_kinds_share_one_core():
    q = ExactPolynomial(
        3, {(2, 0, 1): Fraction(1, 3), (0, 1, 0): Fraction(-2), (1, 1, 1): Fraction(5, 7)}
    )
    f = q.to_float()
    pts = np.random.default_rng(20260817).normal(size=(25, 3))
    assert np.array_equal(q.evaluate_array(pts), f.evaluate_array(pts))
    assert repr(f).startswith("FloatPolynomial(")
    assert repr(q).startswith("ExactPolynomial(")
    with pytest.raises(TypeError):
        ExactPolynomial(2, {(1, 0): 0.5})
    with pytest.raises(TypeError):
        q * 0.5
    # value semantics the float kind gets from the shared core
    assert f == q.to_float() and hash(f) == hash(q.to_float())
    assert f != q
    assert (f + 1).terms[(0, 0, 0)] == 1.0
    assert f * f == f**2
    assert q.max_abs_coeff() == Fraction(2)


def _single_monomials(pts, exps):
    """The (m, K) table of the evaluator's single monomials, each with coefficient 1.0."""
    return np.column_stack([evaluate_monomials(pts, [alpha], [1.0]) for alpha in exps])


def test_single_monomials_match_powers():
    rng = np.random.default_rng(7)
    pts = rng.normal(size=(30, 4))
    exps = np.array([[0, 0, 0, 0], [3, 0, 1, 0], [0, 7, 0, 2], [1, 1, 1, 1], [0, 0, 12, 0]])
    want = (pts[:, None, :] ** exps[None, :, :]).prod(axis=2)
    got = _single_monomials(pts, exps)
    assert got.shape == (30, 5)
    assert np.max(np.abs(got - want) / np.maximum(np.abs(want), 1.0)) <= 1e-14
    assert np.array_equal(evaluate_monomials(pts, np.zeros((0, 4), dtype=int), []), np.zeros(30))


def _column_table(pts, exps):
    """The (m, K) table formed column-wise: each coordinate's powers gathered into a point-major table."""
    table = np.ones((pts.shape[0], exps.shape[0]))
    for i in range(exps.shape[1]):
        top = int(exps[:, i].max(initial=0))
        powers = np.ones((pts.shape[0], top + 1))
        for k in range(1, top + 1):
            powers[:, k] = powers[:, k - 1] * pts[:, i] if k > 1 else pts[:, i]
        table *= powers[:, exps[:, i]]
    return table


def test_single_monomials_give_the_column_formation_bit_for_bit():
    # the same products in the same order: a monomial with coefficient 1.0 keeps the column's bits
    rng = np.random.default_rng(9)
    for _ in range(40):
        p, count, m = (int(v) for v in rng.integers(1, [7, 30, 400]))
        pts, exps = rng.normal(size=(m, p)), rng.integers(0, 9, size=(count, p))
        assert np.array_equal(_single_monomials(pts, exps), _column_table(pts, exps))


def test_evaluate_monomials_slices_get_the_bits_of_the_full_call(monkeypatch):
    # each row's value is formed from the row alone, so every contiguous slice of the points gets the bits of
    # the full call at its rows, also for many terms and for slices across chunk boundaries
    rng = np.random.default_rng(10)
    for trial in range(60):
        if trial == 30:
            monkeypatch.setattr(polyalg, "CHUNK_ELEMENTS", 1 << 10)
        p, count = (int(v) for v in rng.integers(1, [6, 61]))
        exps = rng.integers(0, 6, size=(count, p))
        coeffs = rng.normal(size=count)
        pts = rng.normal(size=(int(rng.integers(1, 2000)), p))
        full = evaluate_monomials(pts, exps, coeffs)
        for a, b in np.sort(rng.integers(0, len(pts) + 1, size=(8, 2)), axis=1):
            assert np.array_equal(evaluate_monomials(pts[a:b], exps, coeffs), full[a:b]), (trial, a, b)


def test_evaluate_monomials_refuses_coefficients_of_the_wrong_length():
    pts, exps = np.ones((4, 3)), np.array([[2, 0, 1], [0, 1, 0], [1, 1, 1]])
    for coeffs in ([1.0, 2.0], [1.0, 2.0, 3.0, 4.0], np.ones((2, 3)), 1.0):
        with pytest.raises(ValueError):
            evaluate_monomials(pts, exps, coeffs)


@pytest.mark.parametrize("p, n_max", [(1, 5), (2, 7), (3, 4), (5, 3), (6, 0)])
def test_graded_monomials_list_every_degree_in_lex_order(p, n_max):
    for n in range(n_max + 1):
        rows = _degree_rows(p, n)
        assert not rows.flags.writeable
        assert rows.shape == (count_homogeneous(p, n), p)
        every = sorted(a for a in itertools.product(range(n + 1), repeat=p) if sum(a) == n)
        assert list(map(tuple, rows.tolist())) == every


def test_evaluate_monomials_shapes_and_chunks():
    rng = np.random.default_rng(8)
    exps = np.array([[2, 0, 1], [0, 1, 0], [1, 1, 1]])
    coeffs = np.array([[0.5, -2.0, 1.25], [1.0, 0.0, -3.0]])
    # past the first chunk boundary: a chunk holds CHUNK_ELEMENTS // 9 points here
    rows = polyalg.CHUNK_ELEMENTS // 3 + 1
    pts = rng.uniform(-1.0, 1.0, size=(rows, 3))
    want = (pts[:, None, :] ** exps[None, :, :]).prod(axis=2) @ coeffs.T
    got = np.column_stack([evaluate_monomials(pts, exps, c) for c in coeffs])
    assert got.shape == (rows, 2)
    assert np.max(np.abs(got - want)) <= 1e-14
    one = evaluate_monomials(pts[-1], exps, coeffs[0])
    assert one.shape == (1,) and abs(one[0] - want[-1, 0]) <= 1e-14
    assert evaluate_monomials(pts[:0], exps, coeffs[0]).shape == (0,)
    with pytest.raises(ValueError):
        evaluate_monomials(pts[:, :2], exps, coeffs[0])


def test_evaluation_working_set_stays_within_the_chunk_budget():
    # the coordinates, their power tables and the temporaries of a term
    rng = np.random.default_rng(12)
    for p, degree in ((5, 4), (3, 12), (2, 40)):
        exps = np.concatenate([_degree_rows(p, n) for n in range(degree + 1)])
        coeffs = rng.normal(size=len(exps))
        pts = rng.normal(size=(30000, p))
        tracemalloc.start()
        try:
            out = evaluate_monomials(pts, exps, coeffs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - out.nbytes <= 1.25 * 8 * polyalg.CHUNK_ELEMENTS, (p, degree)


def test_array_evaluation_across_a_chunk_boundary():
    terms = {(1, 1, 1, 0, 0): 9, (0, 2, 0, 0, 0): -13, (0, 0, 0, 0, 1): 11}
    q = ExactPolynomial(5, {a: Fraction(k, 16) for a, k in terms.items()})
    rows = polyalg.CHUNK_ELEMENTS // 3 + 1
    pts = np.random.default_rng(9).normal(size=(rows, 5))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    exps, coeffs = q._float_arrays()
    want = (pts[:, None, :] ** exps[None, :, :]).prod(axis=2) @ coeffs
    assert np.max(np.abs(q.evaluate_array(pts) - want)) <= 1e-15
