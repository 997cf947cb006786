import math
from fractions import Fraction

import numpy as np
import pytest

import oracles
from hyperharm import orthopoly
from hyperharm.orthopoly import (
    Poly1D,
    RecurrenceCoeffs,
    Weight,
    _jacobi_alpha_beta,
    bernstein,
    best_approximation,
    gauss_rule,
    gram_schmidt,
    inner_product,
    jacobi_rodrigues,
    parseval_report,
    recurrence_coeffs,
    recurrence_residual,
)

LEGENDRE = Weight(0, 0)
CHEBYSHEV = Weight(Fraction(-1, 2), Fraction(-1, 2))


def test_poly1d_construction_trims_trailing_zeros():
    q = Poly1D((1, 2, 0, 0))
    assert q.coeffs == (1, 2)
    assert q.degree == 1
    assert Poly1D(()).degree == -1
    assert Poly1D().leading == 0


def test_poly1d_arithmetic_and_horner():
    q = Poly1D((1, -2, 3))
    assert q(Fraction(1, 2)) == Fraction(3, 4)
    assert (q * q)(2) == q(2) ** 2
    assert (q + 1)(0) == 2
    assert (1 - q)(0) == 0
    assert (q - q).coeffs == ()
    assert (q ** 3)(2) == q(2) ** 3
    xs = np.array([-1.0, 0.0, 0.5])
    assert np.allclose(q(xs), [6.0, 1.0, 0.75])


def test_poly1d_deriv_and_monic():
    q = Poly1D((Fraction(1), Fraction(0), Fraction(2)))
    assert q.deriv().coeffs == (0, Fraction(4))
    assert q.monic().coeffs == (Fraction(1, 2), 0, 1)
    with pytest.raises(ValueError):
        Poly1D().monic()


def test_poly1d_is_the_one_variable_case_of_the_core():
    from hyperharm.legendre import legendre_coeffs
    from hyperharm.polyalg import ExactPolynomial, FloatPolynomial, _Polynomial

    assert issubclass(Poly1D, _Polynomial)
    ring = {"__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__", "__pow__", "__eq__", "__hash__"}
    assert not ring & set(vars(Poly1D))
    assert not hasattr(orthopoly, "ONE")
    # every zero below the leading coefficient is that coefficient's own zero
    row = legendre_coeffs(3, 6).coeffs
    assert [type(c) for c in row] == [Fraction] * 7 and row[1] == row[3] == 0
    family = (Poly1D.x_power(2).as_float() + 1.0) * Poly1D((0.0, 1.0))
    assert family.coeffs == (0.0, 1.0, 0.0, 1.0) and all(type(c) is float for c in family.coeffs)
    # a scalar minus a polynomial, for the one-variable case and both multivariate kinds
    assert (1 - Poly1D((1, -2, 3))).coeffs == (0, 2, -3)
    q = ExactPolynomial(2, {(1, 0): Fraction(1, 3), (0, 0): Fraction(1)})
    assert 1 - q == ExactPolynomial(2, {(1, 0): Fraction(-1, 3)})
    assert 1 - q.to_float() == FloatPolynomial(2, {(1, 0): -1 / 3})
    # equal polynomials from ints and from Fractions hash equal
    ints, fracs = Poly1D((0, 1, 2)), Poly1D((Fraction(0), Fraction(1), Fraction(2)))
    assert ints == fracs and hash(ints) == hash(fracs)
    assert hash(ints * ints) == hash(fracs**2)


def test_zero_and_constant_are_built_without_the_constructor():
    from hyperharm.polyalg import ExactPolynomial

    assert Poly1D.zero(1) == Poly1D() and Poly1D.constant(1, 2) == Poly1D((2,))
    assert Poly1D.constant(1, 2).coeffs == (2,) and Poly1D.zero(1).coeffs == ()
    # the nvars check of user input stays, and a scalar converts as `+` converts it
    with pytest.raises(ValueError):
        ExactPolynomial.zero(0)
    half = ExactPolynomial.constant(2, 0.5)
    assert half == ExactPolynomial(2, {(0, 0): Fraction(1, 2)}) == ExactPolynomial.zero(2) + 0.5


def test_weight_validation_and_mass():
    with pytest.raises(ValueError):
        Weight(-1, 0)
    with pytest.raises(ValueError):
        Weight(0, Fraction(-3, 2))
    assert LEGENDRE.total_mass() == pytest.approx(2.0)
    assert CHEBYSHEV.total_mass() == pytest.approx(math.pi)
    assert Weight(1, 0).total_mass() == pytest.approx(2.0)


def test_gauss_rule_against_exact_moments():
    for a, b in ((0, 0), (1, 0), (2, 2), (0, 3)):
        w = Weight(a, b)
        for m in (1, 2, 4, 6):
            rule = gauss_rule(w, m)
            assert rule.exact_degree == 2 * m - 1
            for k in range(2 * m):
                approx = float(np.sum(rule.weights * rule.nodes**k))
                exact = float(oracles.weighted_moment_exact(k, a, b))
                assert approx == pytest.approx(exact, rel=1e-13, abs=1e-13), (a, b, m, k)


GOLUB_WELSCH_WEIGHTS = [
    LEGENDRE,
    CHEBYSHEV,
    *(Weight(Fraction(k, 2), Fraction(k, 2)) for k in range(1, 6)),  # Gegenbauer 1 .. 3
    Weight(1, 0),
    Weight(0, 2),
    Weight(Fraction(-1, 2), Fraction(1, 2)),
    Weight(Fraction(5, 2), Fraction(1, 2)),
    Weight(Fraction(-3, 4), 3),
    Weight(Fraction(1, 3), Fraction(-1, 5)),
]


@pytest.mark.parametrize("w", GOLUB_WELSCH_WEIGHTS, ids=lambda w: f"{w.alpha},{w.beta}")
def test_gauss_rule_matches_tridiagonal_golub_welsch(w):
    # the dense Jacobi matrix gives the tridiagonal eigensolver's nodes and
    # weights bit for bit, so no quadrature value moves
    eigh_tridiagonal = pytest.importorskip("scipy.linalg").eigh_tridiagonal

    alphas, betas = _jacobi_alpha_beta(float(w.alpha), float(w.beta), 1)
    rule = gauss_rule(w, 1)
    assert rule.nodes.tolist() == [alphas[0]] and rule.weights.tolist() == [betas[0]]
    for m in [*range(2, 65), *range(96, 257, 32)]:
        alphas, betas = _jacobi_alpha_beta(float(w.alpha), float(w.beta), m)
        nodes, vecs = eigh_tridiagonal(alphas, np.sqrt(betas[1:]))
        rule = gauss_rule(w, m)
        assert np.array_equal(rule.nodes, nodes), m
        assert np.array_equal(rule.weights, betas[0] * vecs[0, :] ** 2), m


def test_gauss_rule_chebyshev_oracle():
    rule = gauss_rule(CHEBYSHEV, 3)
    assert np.allclose(np.sort(rule.nodes), [-math.sqrt(3) / 2, 0.0, math.sqrt(3) / 2], atol=1e-14)
    assert np.allclose(rule.weights, math.pi / 3)


def test_gauss_rule_needs_a_node():
    with pytest.raises(ValueError):
        gauss_rule(LEGENDRE, 0)


def test_gauss_rule_refuses_an_eigenproblem_past_the_byte_limit(monkeypatch):
    # the m x m Jacobi matrix and its eigenvectors take 16 m^2 bytes: 2048 nodes fit, 4097 do not
    assert len(gauss_rule(LEGENDRE, 2048).nodes) == 2048
    with pytest.raises(ValueError, match="4097-node Gauss rule"):
        gauss_rule(LEGENDRE, 4097)
    monkeypatch.setattr(orthopoly, "RULE_BYTES_LIMIT", 16 * 10 * 10)
    assert len(gauss_rule(CHEBYSHEV, 10).nodes) == 10
    with pytest.raises(ValueError, match="eigenproblem"):
        gauss_rule(CHEBYSHEV, 11)


def test_inner_product_oracles():
    one = Poly1D((1,))
    x = Poly1D((0, 1))
    assert inner_product(one, one, CHEBYSHEV) == pytest.approx(math.pi)
    assert inner_product(x, x, LEGENDRE) == pytest.approx(Fraction(2, 3))
    assert abs(inner_product(one, x, LEGENDRE)) < 1e-15
    # non-polynomial integrand: closed form pi/2 * (1 + J0(2))
    j0 = pytest.importorskip("scipy.special").j0

    assert inner_product(np.cos, np.cos, CHEBYSHEV) == pytest.approx(
        math.pi / 2 * (1 + j0(2.0)), rel=1e-12
    )


def test_gram_schmidt_matches_monic_oracles():
    phis = gram_schmidt(LEGENDRE, 6)
    oracle = oracles.classical_legendre_rows(6)
    for n, phi in enumerate(phis):
        monic_oracle = [float(c / oracle[n][-1]) for c in oracle[n]]
        assert np.allclose(phi.coeffs, monic_oracle, atol=1e-12), n
    phis = gram_schmidt(CHEBYSHEV, 6)
    oracle = oracles.chebyshev_rows(6)
    for n, phi in enumerate(phis):
        monic_oracle = [float(c / oracle[n][-1]) for c in oracle[n]]
        assert np.allclose(phi.coeffs, monic_oracle, atol=1e-12), n


def test_gram_schmidt_output_is_orthogonal():
    for w in (LEGENDRE, CHEBYSHEV, Weight(2, 2), Weight(1, 0)):
        phis = gram_schmidt(w, 8)
        for i in range(9):
            for j in range(i):
                norm = math.sqrt(
                    inner_product(phis[i], phis[i], w)
                    * inner_product(phis[j], phis[j], w)
                )
                assert abs(inner_product(phis[i], phis[j], w)) <= 1e-12 * max(norm, 1.0)


def test_recurrence_coeffs_legendre_oracle():
    # monic classical Legendre: A_n = 1, B_n = 0, C_n = n^2 / (4n^2 - 1)
    phis = gram_schmidt(LEGENDRE, 8)
    rc = recurrence_coeffs(phis, LEGENDRE)
    for n in range(8):
        assert rc.A[n] == pytest.approx(1.0, abs=1e-12)
        assert rc.B[n] == pytest.approx(0.0, abs=1e-12)
        if n:
            assert rc.C[n] == pytest.approx(n * n / (4 * n * n - 1), rel=1e-11)
    assert rc.C[0] == 0.0


def test_recurrence_residual_small_across_weights():
    for w in (LEGENDRE, CHEBYSHEV, Weight(2, 2), Weight(Fraction(1, 2), Fraction(1, 2)), Weight(1, 0)):
        phis = gram_schmidt(w, 10)
        rc = recurrence_coeffs(phis, w)
        assert recurrence_residual(phis, rc, w) <= 1e-9


def test_recurrence_coeffs_input_validation():
    with pytest.raises(ValueError):
        recurrence_coeffs([Poly1D((1,))], LEGENDRE)
    with pytest.raises(ValueError):
        recurrence_coeffs([Poly1D((1,)), Poly1D((1, 1)), Poly1D((0, 0, 1))], LEGENDRE)
    with pytest.raises(ValueError):
        # x^2 alone is not orthogonal to 1 under the Legendre weight
        recurrence_coeffs([Poly1D((1,)), Poly1D((0, 1)), Poly1D((0.1, 0, 1))], LEGENDRE)


def test_jacobi_rodrigues_exact_low_orders():
    assert jacobi_rodrigues(0, LEGENDRE) == Poly1D((1,))
    assert jacobi_rodrigues(1, LEGENDRE) == Poly1D((0, -2))
    assert jacobi_rodrigues(2, LEGENDRE) == Poly1D((-4, 0, 12))
    # integer-weight outputs stay in exact arithmetic
    assert all(isinstance(c, (int, Fraction)) for c in jacobi_rodrigues(3, Weight(2, 2)).coeffs)


def test_jacobi_rodrigues_proportional_to_gram_schmidt():
    for w in (LEGENDRE, CHEBYSHEV, Weight(2, 2), Weight(1, 0)):
        phis = gram_schmidt(w, 8)
        for n in range(9):
            monic = jacobi_rodrigues(n, w).monic().as_float()
            diff = monic - phis[n]
            norm = math.sqrt(inner_product(phis[n], phis[n], w))
            err = math.sqrt(max(inner_product(diff, diff, w), 0.0))
            assert err <= 1e-9 * max(norm, 1.0), (w, n)


def test_bernstein_lemma_identities_exact():
    for n in range(1, 17):
        assert bernstein(lambda x: Fraction(1), n) == Poly1D((1,))
        assert bernstein(lambda x: x, n) == Poly1D((0, 1))
        want = Poly1D((0, Fraction(1, n), 1 - Fraction(1, n)))
        assert bernstein(lambda x: x * x, n) == want


def test_bernstein_uniform_convergence():
    target = lambda x: abs(x - Fraction(1, 2))
    grid = [Fraction(k, 40) for k in range(41)]
    sups = []
    for n in (4, 16, 64):
        b = bernstein(target, n)
        sups.append(max(abs(b(x) - target(x)) for x in grid))
    assert sups[0] > sups[1] > sups[2]
    assert sups[2] < 0.06


def test_bernstein_rejects_degree_zero():
    with pytest.raises(ValueError):
        bernstein(lambda x: x, 0)


def _coeffs_close(poly, want, atol=1e-12):
    n = max(len(poly.coeffs), len(want))
    a = [float(v) for v in poly.coeffs] + [0.0] * (n - len(poly.coeffs))
    b = [float(v) for v in want] + [0.0] * (n - len(want))
    return np.allclose(a, b, atol=atol, rtol=0)


def test_best_approximation_projection_oracle():
    # least-squares cubic content of x^3 under the flat weight is 3x/5
    approx = best_approximation(Poly1D((0, 0, 0, 1)), LEGENDRE, 2)
    assert _coeffs_close(approx, (0.0, 0.6))
    # projecting onto enough degrees reproduces the polynomial
    full = best_approximation(Poly1D((0, 0, 0, 1)), LEGENDRE, 3)
    assert _coeffs_close(full, (0.0, 0.0, 0.0, 1.0))


def test_parseval_sums_monotone_and_bounded():
    f = Poly1D((1, 1, 0, 2))
    sums, norm_sq = parseval_report(f, LEGENDRE, 6)
    assert all(b >= a - 1e-13 for a, b in zip(sums, sums[1:]))
    assert sums[-1] <= norm_sq + 1e-10
    # a degree-3 polynomial is fully captured at degree 3
    assert sums[3] == pytest.approx(norm_sq, rel=1e-12)
    assert sums[2] < norm_sq - 0.1


def test_parseval_non_polynomial_stays_bounded():
    f = np.exp
    sums, norm_sq = parseval_report(f, CHEBYSHEV, 8)
    assert sums[-1] <= norm_sq + 1e-8
    assert sums[-1] == pytest.approx(norm_sq, rel=1e-10)


def test_recurrence_dataclass_shape():
    rc = RecurrenceCoeffs(A=(1.0,), B=(0.0,), C=(0.0,))
    assert rc.A == (1.0,)


def test_scalar_only_callables_fall_back_per_node():
    from hyperharm.bvp import BoundaryData
    from hyperharm.geometry import sphere_quadrature, zonal_integral

    # float(t) and math.exp(x[0]) raise TypeError on a whole node array
    line = gauss_rule(LEGENDRE, 5)
    assert line.integrate(lambda t: float(t) ** 2) == pytest.approx(2 / 3, rel=1e-14)
    assert zonal_integral(3, lambda t: float(t) ** 2) == pytest.approx(
        4 * math.pi / 3, rel=1e-14
    )
    sphere = sphere_quadrature(3, 6)
    assert sphere.integrate(lambda x: math.exp(x[0])) == pytest.approx(
        sphere.integrate(lambda x: np.exp(x[:, 0])), rel=1e-14
    )
    values = BoundaryData.from_callable(3, lambda x: math.exp(x[0])).values_at(
        sphere.nodes
    )
    assert np.allclose(values, np.exp(sphere.nodes[:, 0]), rtol=1e-15, atol=0)

    # any other error from the batch call propagates instead of retrying per node
    calls = []

    def fails(x):
        calls.append(x)
        raise ZeroDivisionError("batch failure")

    for evaluate in (
        lambda: line.integrate(fails),
        lambda: sphere.integrate(fails),
        lambda: zonal_integral(3, fails),
        lambda: BoundaryData.from_callable(3, fails).values_at(sphere.nodes),
    ):
        calls.clear()
        with pytest.raises(ZeroDivisionError):
            evaluate()
        assert len(calls) == 1
