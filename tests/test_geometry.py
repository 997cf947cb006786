import math
import time
from fractions import Fraction

import numpy as np
import pytest

import oracles
from hyperharm import geometry
from hyperharm.geometry import (
    PiRational,
    QuadratureRule,
    SphericalPoint,
    cartesian_to_spherical,
    gamma_half,
    line_element_coeffs,
    monomial_sphere_integral,
    solid_angle,
    solid_angle_exact,
    sphere_quadrature,
    spherical_to_cartesian,
    zonal_integral,
)
from hyperharm.polyalg import CHUNK_ELEMENTS


def test_gamma_half_exact_values():
    assert gamma_half(2) == PiRational(Fraction(1))
    assert gamma_half(1) == PiRational(Fraction(1), 1)
    assert gamma_half(3) == PiRational(Fraction(1, 2), 1)
    assert gamma_half(8) == PiRational(Fraction(6))
    assert gamma_half(7) == PiRational(Fraction(15, 8), 1)


def test_gamma_half_matches_math_gamma():
    for two_q in range(1, 25):
        assert float(gamma_half(two_q)) == pytest.approx(
            math.gamma(two_q / 2), rel=1e-13
        )


def test_gamma_half_rejects_nonpositive():
    with pytest.raises(ValueError):
        gamma_half(0)


def test_solid_angle_exact_low_dimensions():
    assert solid_angle_exact(1) == PiRational(Fraction(2))
    assert solid_angle_exact(2) == PiRational(Fraction(2), 2)
    assert solid_angle_exact(3) == PiRational(Fraction(4), 2)
    assert solid_angle_exact(4) == PiRational(Fraction(2), 4)
    assert solid_angle_exact(5) == PiRational(Fraction(8, 3), 4)
    assert solid_angle_exact(6) == PiRational(Fraction(1), 6)


def test_solid_angle_float_formula():
    for p in range(1, 12):
        want = 2 * math.pi ** (p / 2) / math.gamma(p / 2)
        assert solid_angle(p) == pytest.approx(want, rel=1e-13)
    with pytest.raises(ValueError):
        solid_angle_exact(0)


def test_cached_solid_angle_is_the_exact_value_rounded():
    for p in range(1, 41):
        assert solid_angle(p) == float(solid_angle_exact(p))
    with pytest.raises(ValueError):
        solid_angle(0)


def test_pi_rational_arithmetic():
    third = PiRational(Fraction(1, 3), 2)
    assert float(third * 3) == pytest.approx(math.pi)
    assert (third + third) == PiRational(Fraction(2, 3), 2)
    assert third / third == PiRational(Fraction(1))
    assert PiRational(Fraction(0), 4) == PiRational(Fraction(0), 0)
    with pytest.raises(ValueError):
        PiRational(Fraction(1), 2) + PiRational(Fraction(1), 0)
    assert PiRational(Fraction(5)) == 5


def test_monomial_integral_odd_exponent_vanishes():
    assert monomial_sphere_integral((1, 2)) == PiRational(Fraction(0))
    assert monomial_sphere_integral((3, 0, 2)) == PiRational(Fraction(0))


def test_monomial_integral_oracles():
    assert monomial_sphere_integral((0, 0)) == solid_angle_exact(2)
    assert monomial_sphere_integral((2, 0)) == PiRational(Fraction(1), 2)
    assert monomial_sphere_integral((2, 0, 0)) == PiRational(Fraction(4, 3), 2)
    alpha = (2, 4, 0, 2, 0)
    want = (
        2
        * math.prod(math.gamma((a + 1) / 2) for a in alpha)
        / math.gamma((sum(alpha) + 5) / 2)
    )
    assert float(monomial_sphere_integral(alpha)) == pytest.approx(want, rel=1e-13)
    with pytest.raises(ValueError):
        monomial_sphere_integral(())
    with pytest.raises(ValueError):
        monomial_sphere_integral((-2, 0))


def test_coordinate_round_trip():
    rng = np.random.default_rng(3)
    for p in (2, 3, 5, 7):
        for _ in range(25):
            x = rng.normal(size=p)
            back = spherical_to_cartesian(cartesian_to_spherical(x))
            assert np.allclose(back, x, atol=1e-12)


def test_origin_has_no_angles():
    with pytest.raises(ValueError):
        cartesian_to_spherical(np.zeros(3))
    with pytest.raises(ValueError):
        cartesian_to_spherical(np.array([1.0]))


def test_spherical_point_validation():
    with pytest.raises(ValueError):
        SphericalPoint(r=-1.0)
    with pytest.raises(ValueError):
        SphericalPoint(r=1.0, phi=7.0)
    with pytest.raises(ValueError):
        SphericalPoint(r=1.0, phi=0.0, thetas=(4.0,))
    assert SphericalPoint(r=1.0, phi=0.25, thetas=(0.5, 1.0)).p == 4


def test_known_points_p3():
    pole = SphericalPoint(r=2.0, phi=0.0, thetas=(0.0,))
    assert np.allclose(spherical_to_cartesian(pole), [0.0, 0.0, 2.0])
    equator = SphericalPoint(r=1.0, phi=0.0, thetas=(math.pi / 2,))
    assert np.allclose(spherical_to_cartesian(equator), [1.0, 0.0, 0.0], atol=1e-16)


def test_line_element_p3_factors():
    pt = SphericalPoint(r=2.0, phi=1.0, thetas=(math.pi / 3,))
    g = line_element_coeffs(pt)
    assert g[0] == 1.0
    assert g[1] == pytest.approx(4.0)
    assert g[2] == pytest.approx(4.0 * math.sin(math.pi / 3) ** 2)


def test_line_element_matches_finite_differences():
    pt = SphericalPoint(r=1.3, phi=0.7, thetas=(1.1, 0.6))
    g = line_element_coeffs(pt)
    h = 1e-6

    def cart(r, phi, thetas):
        return spherical_to_cartesian(SphericalPoint(r=r, phi=phi, thetas=tuple(thetas)))

    x0 = cart(pt.r, pt.phi, pt.thetas)
    dr = (cart(pt.r + h, pt.phi, pt.thetas) - x0) / h
    assert np.dot(dr, dr) == pytest.approx(g[0], rel=1e-4)
    dphi = (cart(pt.r, pt.phi + h, pt.thetas) - x0) / h
    assert np.dot(dphi, dphi) == pytest.approx(g[-1], rel=1e-4)
    # metric coefficients run from the outermost polar angle inward
    q = len(pt.thetas)
    for j in range(q):
        thetas = list(pt.thetas)
        thetas[j] += h
        dt = (cart(pt.r, pt.phi, thetas) - x0) / h
        assert np.dot(dt, dt) == pytest.approx(g[1 + (q - 1 - j)], rel=1e-4)


def test_sphere_rule_weight_sums():
    for p in range(2, 7):
        omega = solid_angle(p)
        for degree in (0, 5, 12):
            rule = sphere_quadrature(p, degree)
            assert abs(float(np.sum(rule.weights)) - omega) <= 1e-12 * omega


def test_sphere_rule_integrates_monomials_exactly():
    cases = {
        2: [(2, 0), (1, 1), (4, 2), (0, 6)],
        3: [(2, 0, 0), (2, 2, 0), (1, 2, 3), (4, 0, 2)],
        4: [(2, 0, 0, 0), (2, 2, 2, 0), (0, 0, 4, 2), (1, 1, 1, 1)],
        5: [(2, 0, 0, 0, 0), (2, 2, 0, 0, 2), (4, 2, 0, 0, 0)],
    }
    for p, alphas in cases.items():
        rule = sphere_quadrature(p, 6)
        omega = solid_angle(p)
        for alpha in alphas:
            vals = (rule.nodes ** np.array(alpha)).prod(axis=1)
            approx = float(np.sum(rule.weights * vals))
            exact = float(monomial_sphere_integral(alpha))
            assert abs(approx - exact) <= 1e-12 * omega, (p, alpha)


def test_circle_rule_is_uniform():
    rule = sphere_quadrature(2, 5)
    assert rule.p == 2
    assert np.allclose(rule.weights, rule.weights[0])
    assert np.allclose(np.linalg.norm(rule.nodes, axis=1), 1.0)


def test_sphere_quadrature_is_cached():
    assert sphere_quadrature(3, 4) is sphere_quadrature(3, 4)


def test_sphere_quadrature_argument_validation():
    with pytest.raises(ValueError):
        sphere_quadrature(1, 4)
    with pytest.raises(ValueError):
        sphere_quadrature(3, -1)


def test_sphere_quadrature_refuses_an_oversized_rule(monkeypatch):
    # (p, degree) = (6, 120) would be 1.7e9 nodes, 12.6 GiB of weights alone
    with pytest.raises(ValueError, match="1689192602 nodes"):
        sphere_quadrature(6, 120)
    # the limit is on nodes plus weights: 2m m^(p-2) rows of p + 1 doubles, m = (degree + 2) // 2
    monkeypatch.setattr(geometry, "RULE_BYTES_LIMIT", 12 * 6 * 4 * 8)
    build = geometry.sphere_quadrature.__wrapped__  # past the cache
    assert len(build(3, 11).weights) == 72
    with pytest.raises(ValueError, match="98 nodes"):
        build(3, 12)


def test_sphere_quadrature_prices_a_huge_rule_without_forming_its_count():
    # 2 m^(p-1) nodes at p = 10^6 and m = 10^400 + 2 would have 4 * 10^8 digits; logarithms refuse it at once
    start = time.perf_counter()
    with pytest.raises(ValueError, match=rf"needs 2 \* {10**400 + 2}\^999999 nodes, more than 256 MiB"):
        sphere_quadrature(10**6, 2 * 10**400 + 2)
    assert time.perf_counter() - start < 0.1


def test_rule_json_round_trip():
    rule = sphere_quadrature(3, 4)
    again = QuadratureRule.from_json(rule.to_json())
    assert np.array_equal(again.nodes, rule.nodes)
    assert np.array_equal(again.weights, rule.weights)
    assert again.exact_degree == rule.exact_degree
    assert again.p == rule.p


def test_rule_csv_round_trip():
    rule = sphere_quadrature(3, 4)
    again = QuadratureRule.from_csv(rule.to_csv())
    assert np.array_equal(again.nodes, rule.nodes)
    assert np.array_equal(again.weights, rule.weights)
    assert again.to_csv() == rule.to_csv()
    with pytest.raises(ValueError):
        QuadratureRule.from_csv("x1,x2,weight\n1,0,6.28\n")


def test_rule_constructor_validation():
    good = sphere_quadrature(2, 3)
    with pytest.raises(ValueError):
        QuadratureRule(good.nodes, -good.weights, exact_degree=3, p=2)
    with pytest.raises(ValueError):
        QuadratureRule(good.nodes * 2.0, good.weights, exact_degree=3, p=2)
    with pytest.raises(ValueError, match="unit vectors"):
        QuadratureRule(good.nodes * (1 + 1e-13), good.weights, exact_degree=3, p=2)
    with pytest.raises(ValueError):
        QuadratureRule(good.nodes, good.weights * 2.0, exact_degree=3, p=2)
    with pytest.raises(ValueError):
        QuadratureRule(np.array([0.0, 2.0]), np.array([1.0, 1.0]), exact_degree=1)


def test_rule_keeps_float_input_without_a_copy():
    good = sphere_quadrature(3, 4)
    nodes, weights = good.nodes.copy(), good.weights.copy()
    rule = QuadratureRule(nodes, weights, exact_degree=good.exact_degree, p=3)
    assert np.shares_memory(rule.nodes, nodes) and np.shares_memory(rule.weights, weights)
    assert nodes.flags.writeable and not rule.nodes.flags.writeable


def test_rule_nodes_are_read_only():
    rule = sphere_quadrature(3, 4)
    with pytest.raises(ValueError):
        rule.nodes[0, 0] = 5.0


def test_integrate_constant():
    rule = sphere_quadrature(4, 3)
    assert rule.integrate(lambda x: np.ones(x.shape[0])) == pytest.approx(
        solid_angle(4), rel=1e-13
    )


def test_zonal_integral_oracles():
    for p in (2, 3, 4, 6):
        omega = solid_angle(p)
        assert zonal_integral(p, lambda t: np.ones_like(t)) == pytest.approx(
            omega, rel=1e-12
        )
        assert zonal_integral(p, lambda t: t * t) == pytest.approx(
            omega / p, rel=1e-12
        )
        assert abs(zonal_integral(p, lambda t: t)) < 1e-13


def test_zonal_integral_rejects_bad_input():
    with pytest.raises(ValueError):
        zonal_integral(1, lambda t: t)
    with pytest.raises(ValueError):
        zonal_integral(3, lambda t: np.full_like(t, np.inf))


def test_sphere_rule_matches_the_meshgrid_assembly():
    # (4, 64) has more nodes than one renormalisation block of CHUNK_ELEMENTS // p rows
    assert len(sphere_quadrature(4, 64).nodes) > CHUNK_ELEMENTS // 4
    for p, degree in ((3, 0), (3, 9), (4, 7), (4, 20), (4, 64), (5, 12), (6, 6), (7, 4)):
        rule = sphere_quadrature(p, degree)
        nodes, weights = oracles.meshgrid_sphere_rule(p, degree)
        assert np.array_equal(rule.nodes, nodes), (p, degree)
        assert np.array_equal(rule.weights, weights), (p, degree)

