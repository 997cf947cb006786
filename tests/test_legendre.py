import math
from fractions import Fraction

import numpy as np
import pytest

import oracles
from hyperharm import legendre, orthopoly
from hyperharm.geometry import PiRational, solid_angle, solid_angle_exact
from hyperharm.harmonic import count_harmonic
from hyperharm.legendre import (
    LegendreTable,
    dimension_shift,
    funk_hecke_coeff,
    generating_function_closed,
    generating_function_partial,
    integral_representation_eval,
    legendre_coeffs,
    legendre_eval,
    legendre_norm_sq,
    legendre_norm_sq_exact,
    ode_residual,
    rodrigues_eval,
)
from hyperharm.orthopoly import Poly1D, Weight, gauss_rule, inner_product


def test_chebyshev_case_exact():
    oracle = oracles.chebyshev_rows(10)
    for n in range(11):
        assert legendre_coeffs(2, n).coeffs == oracle[n]


def test_classical_case_exact():
    oracle = oracles.classical_legendre_rows(10)
    for n in range(11):
        assert legendre_coeffs(3, n).coeffs == oracle[n]


def test_value_one_at_the_pole():
    for p in range(2, 8):
        for n in range(0, 11):
            assert legendre_coeffs(p, n)(Fraction(1)) == 1


def test_parity():
    for p in (2, 3, 5):
        for n in range(0, 9):
            poly = legendre_coeffs(p, n)
            assert poly(Fraction(-1, 3)) == (-1) ** n * poly(Fraction(1, 3))


def test_table_container():
    table = LegendreTable(4, 6)
    assert len(table) == 7
    assert table[3].degree == 3
    assert table[0] == Poly1D((1,))
    with pytest.raises(ValueError):
        LegendreTable(1, 3)


def test_eval_matches_coefficients():
    rng = np.random.default_rng(8)
    ts = rng.uniform(-1, 1, size=12)
    for p in (2, 3, 4, 7):
        for n in (0, 1, 4, 9):
            poly = legendre_coeffs(p, n)
            direct = poly(ts)
            assert np.allclose(legendre_eval(p, n, ts), direct, atol=1e-12)
    assert isinstance(legendre_eval(3, 2, 0.5), float)
    assert legendre_eval(3, 2, 0.5) == pytest.approx(-0.125)
    assert legendre_eval(2, 3, 0.5) == pytest.approx(-1.0)


def test_rodrigues_agrees_with_recurrence():
    ts = np.linspace(-1, 1, 21)
    for p in (2, 3, 4, 6):
        for n in range(0, 9):
            want = legendre_eval(p, n, ts)
            got = np.array([rodrigues_eval(p, n, t) for t in ts])
            assert np.max(np.abs(got - want)) <= 1e-9, (p, n)
    # the exact polynomials agree coefficient for coefficient
    for p in range(2, 9):
        for n in range(13):
            assert legendre._rodrigues_poly(p, n).coeffs == legendre_coeffs(p, n).coeffs, (p, n)


def test_ode_residual_is_small():
    ts = np.linspace(-1, 1, 21)
    for p in (2, 3, 5, 7):
        for n in range(0, 11):
            res = ode_residual(p, n, ts)
            assert np.max(np.abs(res)) <= 1e-10 * (1 + n * n), (p, n)


def test_orthogonality_under_the_ultraspherical_weight():
    for p in (2, 3, 4, 6):
        w = Weight(Fraction(p - 3, 2), Fraction(p - 3, 2))
        polys = [legendre_coeffs(p, n) for n in range(9)]
        for i in range(9):
            for j in range(i):
                assert abs(inner_product(polys[i], polys[j], w)) <= 1e-10


def test_norms_exact_and_quadrature():
    assert legendre_norm_sq_exact(3, 2) == PiRational(Fraction(2, 5))
    assert legendre_norm_sq_exact(2, 0) == PiRational(Fraction(1), 2)
    assert legendre_norm_sq_exact(2, 3) == PiRational(Fraction(1, 2), 2)
    for p in (2, 3, 4, 5):
        w = Weight(Fraction(p - 3, 2), Fraction(p - 3, 2))
        for n in range(0, 9):
            poly = legendre_coeffs(p, n)
            got = inner_product(poly, poly, w)
            want = legendre_norm_sq(p, n)
            assert abs(got - want) <= 1e-10 * want, (p, n)
            exact = solid_angle_exact(p) / (
                count_harmonic(p, n) * solid_angle_exact(p - 1)
            )
            assert legendre_norm_sq_exact(p, n) == exact


def test_bounded_by_one_on_the_interval():
    ts = np.linspace(-1, 1, 201)
    for p in (2, 3, 4, 7):
        for n in range(0, 11):
            assert np.max(np.abs(legendre_eval(p, n, ts))) <= 1 + 1e-12


def test_dimension_shift_reproduces_higher_dimensional_family():
    for p in (2, 3, 4, 5):
        for n in range(0, 9):
            for j in range(0, n + 1):
                shifted = dimension_shift(p, n, j)
                assert shifted == legendre_coeffs(p + 2 * j, n - j), (p, n, j)


def test_dimension_shift_oracle_and_validation():
    assert dimension_shift(3, 2, 1) == Poly1D((0, 1))
    with pytest.raises(ValueError):
        dimension_shift(3, 2, 3)
    with pytest.raises(ValueError):
        dimension_shift(3, 2, -1)


def test_integral_representation_matches_recurrence():
    ts = np.linspace(-1, 1, 21)
    for p in (3, 4, 5, 7):
        for n in range(0, 9):
            want = legendre_eval(p, n, ts)
            got = np.array([integral_representation_eval(p, n, t) for t in ts])
            assert np.max(np.abs(got - want)) <= 1e-9, (p, n)


def test_integral_representation_rejects_plane():
    with pytest.raises(ValueError):
        integral_representation_eval(2, 3, 0.5)
    with pytest.raises(ValueError):
        integral_representation_eval(3, 3, 1.5)


def test_funk_hecke_oracles():
    assert funk_hecke_coeff(3, 0, lambda t: np.ones_like(t)) == pytest.approx(
        4 * math.pi, rel=1e-12
    )
    assert funk_hecke_coeff(3, 2, lambda t: t * t) == pytest.approx(
        8 * math.pi / 15, rel=1e-12
    )
    # degree-n content of P_n itself is the eigenvalue Omega / N
    for p in (3, 4, 5):
        for n in range(0, 5):
            lam = funk_hecke_coeff(p, n, legendre_coeffs(p, n))
            assert lam == pytest.approx(
                solid_angle(p) / count_harmonic(p, n), rel=1e-11
            )
    # zonal kernels of lower polynomial degree carry no degree-n content
    assert abs(funk_hecke_coeff(3, 4, lambda t: t * t)) < 1e-12
    # a kernel taking one point at a time gives the batched kernel's value
    assert funk_hecke_coeff(4, 3, math.exp) == pytest.approx(funk_hecke_coeff(4, 3, np.exp), rel=1e-14)


def test_funk_hecke_rejects_a_kernel_that_is_not_finite_at_a_node():
    with pytest.raises(ValueError, match="not finite"):
        funk_hecke_coeff(3, 2, lambda t: np.where(t > 0.5, np.inf, 1.0))


def test_generating_function_identities():
    for p in (3, 4, 5):
        for t in np.linspace(-1, 1, 9):
            for r in (0.0, 0.1, 0.5):
                partial = generating_function_partial(p, t, r, 60)
                closed = generating_function_closed(p, t, r)
                assert abs(partial - closed) <= 1e-10, (p, t, r)
    assert generating_function_partial(3, 0.3, 0.0, 10) == 1.0
    assert generating_function_closed(3, 1.0, 0.5) == pytest.approx(
        1.5 / 0.5**2, rel=1e-14
    )


def test_generating_function_domain_errors():
    with pytest.raises(ValueError):
        generating_function_partial(3, 1.5, 0.5, 10)
    with pytest.raises(ValueError):
        generating_function_partial(3, 0.5, 0.95, 10)
    with pytest.raises(ValueError):
        generating_function_closed(3, 0.5, -0.95)
    with pytest.raises(ValueError):
        generating_function_partial(3, 0.5, 0.5, -1)


def test_dimension_validation():
    with pytest.raises(ValueError):
        legendre_coeffs(1, 2)
    with pytest.raises(ValueError):
        legendre_eval(0, 2, 0.5)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("route", [legendre_eval, rodrigues_eval])
def test_values_past_a_double_are_refused(route):
    # P_3(1e308) is about 2.5e924: the recurrence overflowed to NaN and Rodrigues' Horner sum to inf
    with pytest.raises(ValueError, match=r"^the value at t = 1e\+308 overflows a double$"):
        route(3, 3, 1e308)
    # an array names its first such t, in row-major order; input that is not finite gives what it gives, unrefused
    with pytest.raises(ValueError, match=r"t = -1e\+200 overflows"):
        route(3, 3, np.array([[0.5, np.nan], [-1e200, 1e308]]))
    values = route(3, 3, np.array([np.nan, 1e100, 0.5]))
    assert np.isnan(values[0]) and values[1] == pytest.approx(2.5e300) and values[2] == -0.4375
    assert not math.isfinite(route(3, 3, np.inf)) and route(3, 0, 1e308) == 1.0
    assert math.isfinite(route(3, 40, 3.0)) and route(3, 40, 3.0) > 1e29


def test_rule_and_table_caches_are_bounded():
    for cached in (legendre._coeff_rows, legendre._rodrigues_poly, orthopoly._gauss_rule_cached):
        maxsize = cached.cache_info().maxsize
        assert maxsize is not None and 0 < maxsize <= 1024
    # repeated requests are still served from the caches
    w = Weight(Fraction(1, 2), Fraction(1, 2))
    assert gauss_rule(w, 12) is gauss_rule(w, 12)
    assert legendre_coeffs(3, 5) is legendre_coeffs(3, 5)
    rodrigues_eval(4, 6, 0.3)
    hits = legendre._rodrigues_poly.cache_info().hits
    rodrigues_eval(4, 6, 0.3)
    assert legendre._rodrigues_poly.cache_info().hits == hits + 1
