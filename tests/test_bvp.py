import itertools
import math
import re
import time
import tracemalloc
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

import oracles
from hyperharm import bvp, harmonic, orthopoly
from hyperharm.bvp import (
    BoundaryData,
    builtin_boundary,
    generating_function_consistency,
    green_function,
    poisson_eval,
    project_boundary,
    series_eval,
)
from hyperharm.geometry import PiRational, _rule_axes, monomial_sphere_integral, solid_angle, sphere_quadrature
from hyperharm.harmonic import harmonic_chunks, legendre_harmonic, orthonormalize, sphere_transform
from hyperharm.legendre import legendre_eval
from hyperharm.polyalg import CHUNK_ELEMENTS, ExactPolynomial, FloatPolynomial


def _monomial(p, alpha, coeff=1):
    return ExactPolynomial(p, {tuple(alpha): Fraction(coeff)})


@pytest.fixture
def bases_built(monkeypatch):
    """The arguments of every HarmonicBasis made while the test runs."""
    built, make = [], harmonic.HarmonicBasis
    monkeypatch.setattr(harmonic, "HarmonicBasis", lambda *args: built.append(args) or make(*args))
    return built


def test_boundary_data_validation():
    poly = _monomial(3, (1, 0, 0))
    with pytest.raises(ValueError):
        BoundaryData(3)
    with pytest.raises(ValueError):
        BoundaryData(3, polynomial=poly, func=lambda pts: pts[:, 0])
    with pytest.raises(ValueError):
        BoundaryData(4, polynomial=poly)
    with pytest.raises(ValueError):
        BoundaryData.from_callable(1, lambda pts: pts[:, 0])
    assert BoundaryData.from_polynomial(poly).degree == 1
    assert BoundaryData.from_callable(3, lambda pts: pts[:, 0]).degree is None


def test_builtin_boundary_names():
    for name in ("one", "coordinate", "coordinate-squared", "exponential"):
        data = builtin_boundary(3, name)
        vals = data.values_at(np.array([[1.0, 0.0, 0.0]]))
        assert np.isfinite(vals).all()
    assert builtin_boundary(3, "one").values_at(
        np.array([[0.0, 1.0, 0.0]])
    ) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        builtin_boundary(3, "sawtooth")


def test_values_at_rejects_non_finite_data():
    bad = BoundaryData.from_callable(3, lambda pts: np.full(pts.shape[0], np.nan))
    with pytest.raises(ValueError):
        bad.values_at(np.array([[0.0, 1.0, 0.0]]))


def test_projection_reproduces_a_single_harmonic():
    basis = orthonormalize(3, 2)
    f = BoundaryData.from_polynomial(basis.members[1])
    sol = project_boundary(f, 4)
    assert sol.projection_error == 0.0
    for n, row in enumerate(sol.coeffs):
        for j, c in enumerate(row):
            want = 1.0 if (n == 2 and j == 1) else 0.0
            assert abs(c - want) <= 1e-10, (n, j)


def test_projection_of_a_constant():
    f = BoundaryData.from_polynomial(ExactPolynomial(3, {(0, 0, 0): Fraction(1)}))
    sol = project_boundary(f, 2)
    assert sol.coeffs[0][0] == pytest.approx(math.sqrt(solid_angle(3)), rel=1e-12)
    assert max(abs(c) for c in sol.coeffs[1]) <= 1e-12
    assert max(abs(c) for c in sol.coeffs[2]) <= 1e-12


def test_projection_parity():
    # odd boundary data has no even-degree content
    f = BoundaryData.from_polynomial(_monomial(3, (3, 0, 0)))
    sol = project_boundary(f, 4)
    for n in (0, 2, 4):
        assert max(abs(c) for c in sol.coeffs[n]) <= 1e-10


def test_projection_quadrature_configuration_error():
    f = BoundaryData.from_polynomial(_monomial(3, (1, 0, 0)))
    with pytest.raises(ValueError, match="need at least"):
        project_boundary(f, 5, quad_degree=3)
    with pytest.raises(ValueError):
        project_boundary(f, -1)


def test_projection_norm_bound_for_callable_data():
    f = builtin_boundary(3, "exponential")
    sol = project_boundary(f, 6)
    assert sol.coeff_sq_sum <= sol.f_norm_sq + 1e-8
    assert sol.projection_error <= 1e-10


def test_series_eval_extends_harmonics():
    # the solution of the ball problem with harmonic polynomial data is the
    # polynomial itself, so the series must reproduce it in the interior
    rng = np.random.default_rng(11)
    for p in (3, 4):
        for n in (1, 2, 3):
            zonal = legendre_harmonic(p, n)
            f = BoundaryData.from_polynomial(zonal)
            sol = project_boundary(f, n + 1)
            pts = oracles.unit_vectors(rng, p, 12) * rng.uniform(
                0.0, 1.0, size=(12, 1)
            )
            zf = zonal.to_float()
            for x in pts:
                assert series_eval(sol, x) == pytest.approx(
                    zf.evaluate_array(x[None, :])[0], abs=1e-9
                )


def test_series_value_at_the_center_is_the_mean():
    f = BoundaryData.from_polynomial(
        ExactPolynomial(3, {(0, 0, 0): Fraction(2), (2, 0, 0): Fraction(3)})
    )
    sol = project_boundary(f, 4)
    # mean of 2 + 3 x1^2 over the unit sphere is 2 + 3/3
    assert series_eval(sol, np.zeros(3)) == pytest.approx(3.0, abs=1e-10)


def test_series_eval_domain():
    f = BoundaryData.from_polynomial(_monomial(3, (1, 0, 0)))
    sol = project_boundary(f, 2)
    with pytest.raises(ValueError):
        series_eval(sol, np.array([1.2, 0.0, 0.0]))
    with pytest.raises(ValueError):
        series_eval(sol, np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match="point dimension"):
        series_eval(sol, [0.5, 0.5, 0.0, 0.0])
    # the bound is |x| <= 1 + 1e-12, from the running sums of squares the recurrence reads
    edge = np.array([0.6, 0.0, 0.8])
    assert series_eval(sol, edge * (1 + 5e-13)) == pytest.approx(series_eval(sol, edge), abs=1e-11)
    with pytest.raises(ValueError, match="defined on the closed unit ball"):
        series_eval(sol, edge * (1 + 2e-12))
    nan = np.array([np.nan, 0.0, 0.0])
    for x in (nan, np.vstack([np.zeros(3), nan])):
        with pytest.raises(ValueError, match="defined on the closed unit ball"):
            series_eval(sol, x)


def test_green_function_oracle():
    # source at the center, p = 3: the scale 1/((2-p) Omega) is negative, and
    # at radius 1/2 the bracket rho^{2-p} - 1 equals 1, so G = -1/(4 pi)
    got = green_function(3, np.array([0.5, 0.0, 0.0]), np.zeros(3))
    assert got == pytest.approx(-1.0 / (4 * math.pi), rel=1e-12)


def test_green_function_vanishes_on_the_boundary():
    rng = np.random.default_rng(3)
    for p in (3, 4, 5):
        x0 = oracles.unit_vectors(rng, p, 1)[0] * 0.4
        for x in oracles.unit_vectors(rng, p, 5):
            assert abs(green_function(p, x, x0)) <= 1e-12


def test_green_function_symmetry():
    rng = np.random.default_rng(5)
    for p in (3, 4):
        a = oracles.unit_vectors(rng, p, 1)[0] * 0.55
        b = oracles.unit_vectors(rng, p, 1)[0] * 0.3
        assert green_function(p, a, b) == pytest.approx(
            green_function(p, b, a), abs=1e-12
        )


def test_green_function_errors():
    with pytest.raises(ValueError):
        green_function(2, np.array([0.5, 0.0]), np.zeros(2))
    with pytest.raises(ValueError):
        green_function(3, np.array([0.5, 0.0, 0.0]), np.array([0.5, 0.0, 0.0]))
    with pytest.raises(ValueError):
        green_function(3, np.array([1.5, 0.0, 0.0]), np.zeros(3))
    with pytest.raises(ValueError):
        green_function(3, np.array([0.5, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]))
    nan = np.array([np.nan, 0.0, 0.0])
    with pytest.raises(ValueError, match="x must lie in the closed unit ball"):
        green_function(3, nan, np.zeros(3))
    with pytest.raises(ValueError, match="x0 must lie in the open unit ball"):
        green_function(3, np.array([0.5, 0.0, 0.0]), nan)


def test_poisson_constant_boundary_gives_one():
    f = builtin_boundary(3, "one")
    rng = np.random.default_rng(9)
    for r in (0.0, 0.3, 0.6):
        x0 = oracles.unit_vectors(rng, 3, 1)[0] * r
        assert poisson_eval(f, x0) == pytest.approx(1.0, abs=1e-8)
    # closer to the boundary the kernel needs a finer rule
    x0 = oracles.unit_vectors(rng, 3, 1)[0] * 0.8
    assert poisson_eval(f, x0, quad_degree=96) == pytest.approx(1.0, abs=1e-8)


def test_poisson_reproduces_scaled_harmonics():
    rng = np.random.default_rng(13)
    for p in (3, 4):
        for n in (1, 2):
            zonal = legendre_harmonic(p, n)
            f = BoundaryData.from_polynomial(zonal)
            pts = oracles.unit_vectors(rng, p, 6) * rng.uniform(
                0.1, 0.6, size=(6, 1)
            )
            got = poisson_eval(f, pts, quad_degree=64)
            norms = np.linalg.norm(pts, axis=1)
            want = norms**n * legendre_eval(p, n, pts[:, 0] / norms)
            assert np.max(np.abs(got - want)) <= 1e-6, (p, n)


def test_poisson_batch_matches_single_points(monkeypatch):
    # polynomial data's value at a node is the node's own, so every point of a batch gets the bits of its own
    # call, also for data of many terms
    many = _random_polynomial(np.random.default_rng(84), 4, 5, 12)
    assert len(many.terms) >= 8
    calls, values_at = [], BoundaryData.values_at

    def spy(self, points):
        calls.append(len(points))
        return values_at(self, points)

    monkeypatch.setattr(BoundaryData, "values_at", spy)
    rng = np.random.default_rng(85)
    for f in (builtin_boundary(3, "coordinate-squared"), BoundaryData.from_polynomial(many)):
        pts = oracles.unit_vectors(rng, f.p, 12) * rng.uniform(0.0, 0.9, (12, 1))
        pts[0] = 0.0
        calls.clear()
        batch = poisson_eval(f, pts)
        batch_calls = calls[:]
        calls.clear()
        for x0, want in zip(pts, batch):
            assert poisson_eval(f, x0) == want
        assert len(batch_calls) < len(calls) and sum(batch_calls) == sum(calls)


def _kernel_points(rng, p):
    """r = 0, three points on one sphere of radius 0.5 (one t rule), the poles +-e_p and two more radii."""
    pts = np.zeros((8, p))
    pts[1:4] = 0.5 * oracles.unit_vectors(rng, p, 3)
    pts[4, -1], pts[5, -1] = 0.3, -0.3
    pts[6:] = oracles.unit_vectors(rng, p, 2) * np.array([[0.2], [0.7]])
    return pts


@pytest.mark.parametrize("p, quad_degree", [(3, None), (5, 20)])
def test_callable_batch_matches_single_points(p, quad_degree):
    # a point's values come only from its own nodes, whichever points share its t rule, blocks and data calls
    f = BoundaryData.from_callable(p, lambda x: np.exp(x[:, 0]) * np.cos(x[:, 1]))
    pts = _kernel_points(np.random.default_rng(86), p)
    degree = quad_degree or bvp.DEFAULT_CALLABLE_DEGREE
    sizes = [len(bvp._t_rule(p, float(r), degree)) for r in np.linalg.norm(pts, axis=1)]
    assert sizes[1] == sizes[2] == sizes[3] and len(set(sizes)) >= 4
    batch = poisson_eval(f, pts, quad_degree=quad_degree)
    assert [poisson_eval(f, x, quad_degree=quad_degree) for x in pts] == batch.tolist()


def test_near_sphere_callable_batch_stays_within_the_chunk_budget():
    # p = 4, degree 64: 2048 t nodes times 2178 ring nodes a point, 4.5M boundary nodes, evaluated in blocks
    p, degree = 4, 64
    f = builtin_boundary(p, "exponential")
    pts = 0.99 * oracles.unit_vectors(np.random.default_rng(87), p, 6)
    bvp._t_rule(p, 0.99, degree), bvp._slice_rule(p, degree)  # the cached rules are built before the count
    tracemalloc.start()
    try:
        out = poisson_eval(f, pts, quad_degree=degree)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - out.nbytes <= 4 * 8 * CHUNK_ELEMENTS and np.all(np.isfinite(out))


def test_a_small_chunk_budget_splits_t_blocks_and_data_calls(monkeypatch):
    # p = 3, degree 2: 4 ring nodes, 12 entries a t node.  At 2^9 entries a block holds 42 t nodes, so the
    # 192-node rule at |x| = 0.9 takes 5 blocks, and two of the 16-node rules at |x| = 0.1 share a data call
    p = 3
    f = BoundaryData.from_polynomial(ExactPolynomial(p, {(1, 1, 0): Fraction(1), (0, 0, 2): Fraction(-3, 2)}))
    rng = np.random.default_rng(88)
    near, far = 0.1 * oracles.unit_vectors(rng, p, 4), 0.9 * oracles.unit_vectors(rng, p, 2)
    want = poisson_eval(f, np.vstack([near, far]))
    calls, values_at = [], BoundaryData.values_at

    def spy(self, points):
        calls.append(len(points))
        return values_at(self, points)

    monkeypatch.setattr(BoundaryData, "values_at", spy)
    monkeypatch.setattr(bvp, "CHUNK_ELEMENTS", 1 << 9)
    ring = len(bvp._slice_rule(p, 2)[1])
    for pts, few, many in ((near, 2, 3), (far, 3, 10)):
        calls.clear()
        poisson_eval(f, pts)
        sizes = [len(bvp._t_rule(p, float(r), 2)) for r in np.linalg.norm(pts, axis=1)]
        assert len(set(sizes)) == 1 and sum(calls) == sum(sizes) * ring
        assert max(calls) <= (1 << 9) // p and few <= len(calls) <= many, (calls, sizes)
    got = poisson_eval(f, np.vstack([near, far]))
    assert np.max(np.abs(got - want)) <= 1e-15


def test_poisson_domain_errors():
    f = builtin_boundary(3, "one")
    with pytest.raises(ValueError):
        poisson_eval(f, np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        poisson_eval(f, np.array([0.5, 0.5]))


def test_kernel_matches_the_series_at_the_cli_default_degree():
    # the product rule of degree 64 missed by 1.9e-6 here; the pole-aligned
    # rule is exact in the slice and resolves the kernel in t
    rng = np.random.default_rng(61)
    poly = ExactPolynomial(
        4,
        {
            (1, 0, 0, 0): Fraction(1),
            (1, 1, 0, 0): Fraction(1),
            (2, 0, 0, 0): Fraction(1),
            (0, 1, 0, 2): Fraction(-2, 3),
        },
    )
    f = BoundaryData.from_polynomial(poly)
    sol = project_boundary(f, 3)
    pts = 0.8 * oracles.unit_vectors(rng, 4, 40)
    pts[0] = [0.0, 0.0, 0.0, 0.8]
    pts[1] = [0.0, 0.0, 0.0, -0.8]
    kernel = poisson_eval(f, pts, quad_degree=64)
    assert np.max(np.abs(kernel - series_eval(sol, pts))) <= 1e-12


def test_kernel_on_the_circle_and_at_the_center():
    rng = np.random.default_rng(67)
    poly = ExactPolynomial(2, {(0, 0): Fraction(1), (3, 0): Fraction(2), (1, 2): Fraction(-1)})
    f = BoundaryData.from_polynomial(poly)
    sol = project_boundary(f, 3)
    pts = oracles.unit_vectors(rng, 2, 20) * rng.uniform(0.0, 0.9, size=(20, 1))
    pts[0] = 0.0
    pts[1] = [0.0, -0.9]
    assert np.max(np.abs(poisson_eval(f, pts) - series_eval(sol, pts))) <= 1e-12
    # at the center t = x_p, so x_p^20 needs the t rule's polynomial nodes
    for p in (3, 5):
        alpha = (0,) * (p - 1) + (20,)
        poly = ExactPolynomial(p, {alpha: Fraction(1), (0,) * p: Fraction(1)})
        f = BoundaryData.from_polynomial(poly)
        mean = 1.0 + float(monomial_sphere_integral(alpha)) / solid_angle(p)
        assert poisson_eval(f, np.zeros(p)) == pytest.approx(mean, rel=1e-14)


def test_kernel_accuracy_at_the_documented_radius():
    # the t rule reaches MAX_T_NODES at |x| = 0.99 and still holds there;
    # farther out the documented error grows to 1e-8 and then 1e-1
    rng = np.random.default_rng(71)
    for p in (3, 5):
        x1, x1x2 = (1,) + (0,) * (p - 1), (1, 1) + (0,) * (p - 2)
        f = BoundaryData.from_polynomial(ExactPolynomial(p, {x1: Fraction(1), x1x2: Fraction(1)}))
        pts = 0.99 * oracles.unit_vectors(rng, p, 8)
        assert len(bvp._t_rule(p, 0.99, f.degree).nodes) == bvp.MAX_T_NODES
        err = np.abs(poisson_eval(f, pts) - series_eval(project_boundary(f, 2), pts))
        assert np.max(err) <= 1e-10, p


def test_kernel_degree_below_the_data_degree_is_an_error():
    f = builtin_boundary(3, "coordinate-squared")
    with pytest.raises(ValueError, match="below"):
        poisson_eval(f, np.array([0.1, 0.2, 0.3]), quad_degree=1)
    with pytest.raises(ValueError):
        poisson_eval(builtin_boundary(3, "exponential"), np.zeros(3), quad_degree=-1)
    assert poisson_eval(f, np.zeros(3), quad_degree=2) == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_kernel_sweep_builds_one_gauss_rule_per_distinct_t_size(monkeypatch):
    p, degree = 4, 2
    f = BoundaryData.from_polynomial(ExactPolynomial(p, {(1, 1, 0, 0): Fraction(1), (0, 0, 0, 0): Fraction(2)}))
    rng = np.random.default_rng(79)
    radii = np.linspace(0.05, 0.97, 40)
    pts = oracles.unit_vectors(rng, p, 40) * radii[:, None]
    bvp._slice_rule(p, degree)  # the slice's own product rule is built before the spies
    built, cached = [], orthopoly._gauss_rule_cached
    monkeypatch.setattr(orthopoly, "_gauss_rule_cached",
                        lru_cache(maxsize=None)(lambda a, b, m: built.append(m) or cached.__wrapped__(a, b, m)))
    poisson_eval(f, pts)
    sizes = {len(bvp._t_rule(p, float(r), degree)) for r in np.linalg.norm(pts, axis=1)}
    assert sorted(built) == sorted(sizes)


def test_kernel_rule_stays_small_for_polynomial_data():
    # through degree 10 at p = 5, no point with |x| <= 0.9 gets a rule of
    # more than 1e5 nodes, whatever quad_degree asks for
    for degree in range(11):
        slice_nodes = len(bvp._slice_rule(5, degree)[1])
        for r in np.linspace(0.0, 0.9, 46):
            assert len(bvp._t_rule(5, r, degree)) * slice_nodes <= 100_000, (degree, r)


def test_kernel_with_callable_data_matches_the_series():
    rng = np.random.default_rng(71)
    for p in (3, 4):
        f = builtin_boundary(p, "exponential")
        sol = project_boundary(f, 12)
        pts = oracles.unit_vectors(rng, p, 10) * rng.uniform(0.0, 0.8, size=(10, 1))
        kernel = poisson_eval(f, pts, quad_degree=64)
        assert np.max(np.abs(kernel - series_eval(sol, pts))) <= 1e-10, p


def test_high_degree_callable_solve_matches_the_kernel():
    # degree 50 at p = 3 was past the float orthonormalization of the previous basis
    rng = np.random.default_rng(73)
    f = builtin_boundary(3, "exponential")
    sol = project_boundary(f, 50)
    pts = oracles.unit_vectors(rng, 3, 10) * rng.uniform(0.0, 0.8, size=(10, 1))
    assert np.max(np.abs(poisson_eval(f, pts, quad_degree=64) - series_eval(sol, pts))) <= 1e-12


def test_projection_past_the_byte_limit_is_refused_up_front(bases_built):
    # the C(n_max + p - 1, p - 1) + C(n_max + p - 2, p - 1) coefficients are priced first; no basis is built
    f = builtin_boundary(3, "exponential")
    with pytest.raises(ValueError, match="coefficient output .* more than 256 MiB"):
        project_boundary(f, 10**400)
    # p = 4 at n_max 37, the first past the C(n_max + 4, 4) <= 100,000 monomials once counted, solves
    assert math.comb(37 + 4, 4) > 100_000 >= math.comb(36 + 4, 4)
    assert project_boundary(builtin_boundary(4, "exponential"), 37).projection_error <= 1e-13
    assert not bases_built
    # a huge p and a huge n_max: neither binomial is formed
    with pytest.raises(ValueError, match="coefficient output"):
        project_boundary(BoundaryData.from_callable(10**6, lambda x: x[:, 0]), 10**400)


@pytest.mark.parametrize("n_max", [83, 100, 120])
def test_callable_data_past_the_old_monomial_count_solves(n_max):
    # p = 3 from n_max 83 on was refused by a count of C(n_max + 3, 3) monomials that no route builds
    rng = np.random.default_rng(n_max)
    f = builtin_boundary(3, "exponential")
    sol = project_boundary(f, n_max)
    assert sol.projection_error <= 1e-13
    pts = oracles.unit_vectors(rng, 3, 10) * rng.uniform(0.0, 0.8, size=(10, 1))
    assert np.max(np.abs(poisson_eval(f, pts, quad_degree=64) - series_eval(sol, pts))) <= 1e-12


def test_polynomial_data_at_a_high_degree_in_two_variables_solves_at_once():
    # `_plan`'s gather loop visits only the j <= 1 that have members at p = 2
    harmonic._plan.cache_clear()
    start = time.perf_counter()
    sol = project_boundary(builtin_boundary(2, "coordinate"), 5000)
    assert series_eval(sol, np.array([[0.3, 0.4], [-0.5, 0.1]])) == pytest.approx([0.3, -0.5], abs=1e-12)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("p, kind, n_max, table", [(p, kind, 10**400, "coefficient output") for p in range(2, 7)
                                                   for kind in ("exponential", "coordinate")]
                         + [(10**6, None, 10**400, "coefficient output"), (3, "exponential", 300, "t-factor build")])
def test_oversized_projections_are_refused_at_once_naming_the_table(p, kind, n_max, table):
    f = builtin_boundary(p, kind) if kind else BoundaryData.from_callable(p, lambda x: x[:, 0])
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"the {table} .* needs more than 256 MiB"):
        project_boundary(f, n_max)
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("p, degree", [(2, 5000), (3, 400)])
def test_polynomial_data_of_a_high_degree_is_refused_at_once_naming_its_integrals(p, degree):
    # the exact route keeps each degree's profile integers up to deg f, and their floor passes 256 MiB
    f = BoundaryData.from_polynomial(ExactPolynomial.monomial(p, (degree,) + (0,) * (p - 1), 1))
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"the exact integrals of degree <= {degree} in {p} variables needs more "
                                         "than 256 MiB"):
        project_boundary(f, degree)
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("p, degrees", [(2, (40, 80)), (3, (20, 40)), (4, (12, 20)), (5, (8, 12))])
def test_exact_integrals_price_is_a_floor_within_four_of_the_peak(monkeypatch, p, degrees):
    prices, rng = [], np.random.default_rng(p)
    monkeypatch.setattr(bvp, "_priced", lambda what, nbytes: prices.append(nbytes))
    for d in degrees:
        four = {tuple(map(int, rng.multinomial(d, [1 / p] * p))): int(rng.integers(1, 9)) for _ in range(4)}
        for terms in ({(d,) + (0,) * (p - 1): 1}, four):
            harmonic._norms.cache_clear()  # the norms the loop keeps are part of its floor
            prices.clear()
            tracemalloc.start()
            try:
                bvp._exact_transform(ExactPolynomial(p, terms), d)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert prices == [prices[0]] and prices[0] <= peak <= 4 * prices[0]


@pytest.mark.parametrize("p, sizes", [(2, (200, 600)), (3, (40, 80)), (4, (15, 30)), (5, (8, 16))])
def test_each_priced_build_peaks_at_one_quarter_to_all_of_its_price(monkeypatch, p, sizes):
    # each price checked against RULE_BYTES_LIMIT, against the tracemalloc peak of the work it prices: `_plan` with
    # one point, `_transform_tables` with `sphere_transform`'s gathers, and a projection's coefficient output
    prices = []
    for module in (bvp, harmonic):
        monkeypatch.setattr(module, "_priced", lambda what, nbytes: prices.append(nbytes))

    def price_and_peak(work):
        prices.clear()
        tracemalloc.start()
        try:
            work()
            return sum(prices), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    for n in sizes:
        degree = max(bvp.DEFAULT_CALLABLE_DEGREE, 2 * n + 2)
        rule = sphere_quadrature(p, degree)
        values = rule.weights * np.exp(rule.nodes[:, 0])
        harmonic._plan.cache_clear()
        plan = price_and_peak(lambda: list(harmonic_chunks(np.full((1, p), 0.5 / math.sqrt(p)), p, n)))
        harmonic._plan(2, n, 0)  # S^1's plan, which the circle table reads
        harmonic._transform_tables.cache_clear()
        tables = price_and_peak(lambda: sphere_transform(values, p, n, degree))
        output = price_and_peak(lambda: project_boundary(builtin_boundary(p, "coordinate"), n)._vector)
        for price, peak in (plan, tables, output):
            assert peak <= price <= 4 * peak


def test_cross_method_agreement():
    rng = np.random.default_rng(17)
    poly = ExactPolynomial(
        3,
        {
            (0, 0, 0): Fraction(1),
            (1, 1, 0): Fraction(2),
            (3, 0, 0): Fraction(-1),
            (0, 2, 1): Fraction(1, 2),
        },
    )
    f = BoundaryData.from_polynomial(poly)
    sol = project_boundary(f, 3)
    pts = oracles.unit_vectors(rng, 3, 10) * (
        0.8 * rng.uniform(0.0, 1.0, size=(10, 1)) ** (1.0 / 3.0)
    )
    kernel = poisson_eval(f, pts, quad_degree=64)
    series = np.array([series_eval(sol, x) for x in pts])
    assert np.max(np.abs(kernel - series)) <= 1e-6


def test_maximum_principle_on_samples():
    # interior values of the harmonic extension stay inside the boundary range
    f = builtin_boundary(3, "coordinate")
    sol = project_boundary(f, 3)
    rng = np.random.default_rng(23)
    pts = oracles.unit_vectors(rng, 3, 40) * rng.uniform(0.0, 0.95, size=(40, 1))
    vals = np.array([series_eval(sol, x) for x in pts])
    assert np.all(vals <= 1.0 + 1e-8)
    assert np.all(vals >= -1.0 - 1e-8)


def test_generating_function_consistency_report():
    t_grid = np.linspace(-1, 1, 11)
    r_grid = (0.1, 0.3, 0.5)
    for p in (3, 4):
        assert generating_function_consistency(p, t_grid, r_grid, 60) <= 1e-10


def test_series_batch_matches_single_points():
    f = builtin_boundary(3, "exponential")
    sol = project_boundary(f, 5)
    rng = np.random.default_rng(41)
    pts = rng.normal(size=(30, 3))
    pts *= (rng.random(30) / np.linalg.norm(pts, axis=1))[:, None]
    pts[0] = 0.0
    pts[1] = [0.6, 0.0, 0.8]
    batch = series_eval(sol, pts)
    assert batch.shape == (30,)
    single = [series_eval(sol, x) for x in pts]
    assert all(isinstance(v, float) for v in single)
    assert np.max(np.abs(batch - single)) <= 1e-14
    assert series_eval(sol, pts[:0]).shape == (0,)
    with pytest.raises(ValueError):
        series_eval(sol, np.vstack([pts, [[0.0, 1.2, 0.0]]]))
    with pytest.raises(ValueError):
        series_eval(sol, pts[:, :2])


def test_projection_norm_bound_violation_is_an_input_error():
    # degree-60 harmonics cannot be resolved by a degree-40 rule
    with pytest.raises(ValueError, match="norm bound"):
        project_boundary(builtin_boundary(2, "exponential"), 60, quad_degree=40)


def test_norm_bound_message_states_what_it_measured():
    # degree-60 harmonics on a degree-40 rule: the rule's coefficients break Bessel's inequality
    with pytest.raises(ValueError, match="norm bound") as info:
        project_boundary(builtin_boundary(2, "exponential"), 60, quad_degree=40)
    message = str(info.value)
    found = re.search(r"coeff_sq_sum (\S+) > f_norm_sq (\S+);", message)
    assert found, message
    coeff_sq_sum, f_norm_sq = map(float, found.groups())
    # exp(2 x_1) on S^1 integrates to 2 pi I_0(2), I_0(2) = sum_k 1 / k!^2
    assert coeff_sq_sum > f_norm_sq + 1e-8
    assert f_norm_sq == pytest.approx(2 * math.pi * sum(1 / math.factorial(k) ** 2 for k in range(30)), rel=1e-14)
    assert "degree-40 quadrature" in message and "cancellation" not in message


# pi to 60 digits, so that the exact side of a squared coefficient is good to far below one rounding
PI = Fraction("3.14159265358979323846264338327950288419716939937510582097494459")


def _sphere_mean(alpha):
    """The mean of x^alpha over S^{p-1}: prod (alpha_i - 1)!! / (p (p + 2) .. (p + |alpha| - 2)) when every
    alpha_i is even, else 0."""
    if any(a % 2 for a in alpha):
        return Fraction(0)
    num = math.prod(math.prod(range(a - 1, 0, -2)) for a in alpha)
    return Fraction(num, math.prod(range(len(alpha), len(alpha) + sum(alpha), 2)))


def _solid_angle(p):
    """Omega_p = 2 pi^(p/2) / Gamma(p/2), exact up to PI."""
    m = p // 2
    rational = Fraction(2, math.factorial(m - 1)) if p % 2 == 0 else Fraction(2 * 4**m * math.factorial(m),
                                                                              math.factorial(2 * m))
    return rational * PI**m


def _inner(f, g):
    """The mean of f g over the sphere, exact."""
    return sum(cf * cg * _sphere_mean(tuple(a + b for a, b in zip(af, ag)))
               for af, cf in f.terms.items() for ag, cg in g.terms.items())


@pytest.mark.parametrize("p", [2, 3, 4, 5, 6])
def test_polynomial_coefficients_are_exact_until_one_rounding(p):
    # terms of degrees 0..4 of both parities: f|_S lies in the harmonics of degree <= 4
    x1, x2, xp = (ExactPolynomial.variable(p, i) for i in (0, 1, p - 1))
    poly = (-Fraction(5, 7) * x1 + Fraction(1, 3) + Fraction(3, 2) * x1 * xp + 2 * x2 * x2 * xp
            - Fraction(1, 9) * x1 * x1 * xp * xp + Fraction(5, 11) * x2**4)
    assert poly.degree() == 4 and len(poly.terms) == 6
    sol = project_boundary(BoundaryData.from_polynomial(poly), 7)
    for n, row in enumerate(sol.coeffs):
        if n > 4:
            assert all(c == 0.0 for c in row), n
            continue
        # the oracle's members are positive multiples of the package's, in the same order
        members = oracles.slice_recursion_basis(p, n)
        assert len(members) == len(row)
        for i, (c, m) in enumerate(zip(row, members)):
            a = _inner(poly, m)
            if a == 0:
                assert c == 0.0, (n, i)
                continue
            exact = _solid_angle(p) * a * a / _inner(m, m)
            assert abs(Fraction(c) ** 2 / exact - 1) <= 4.5e-16, (n, i)
            assert (c > 0) == (a > 0), (n, i)


@pytest.mark.parametrize("p, n_max", [(2, 100), (3, 70)])
def test_coordinate_data_solves_at_high_degree(p, n_max):
    # the float power-basis rows refused (2, 100) on the norm bound and read 3.1e-7 off degree 1 at (3, 70)
    sol = project_boundary(builtin_boundary(p, "coordinate"), n_max)
    assert all(c == 0.0 for n, row in enumerate(sol.coeffs) if n != 1 for c in row)
    # x_1 is the last degree-1 member, and its coefficient is |x_1|, sqrt(Omega_p / p)
    *others, c = sol.coeffs[1]
    assert others == [0.0] * (p - 1)
    assert abs(c - math.sqrt(solid_angle(p) / p)) <= math.ulp(c)


def test_polynomial_solve_builds_no_basis(bases_built):
    sol = project_boundary(builtin_boundary(3, "coordinate-squared"), 40)
    assert not bases_built
    assert all(c == 0.0 for row in sol.coeffs[3:] for c in row)


def test_high_degree_callable_solves_match_the_kernel(bases_built):
    # the power-basis route refused (2, 100) on the norm bound and read 2.2e-8 at (3, 56)
    rng = np.random.default_rng(79)
    for p, n_max in ((2, 100), (3, 56)):
        f = builtin_boundary(p, "exponential")
        sol = project_boundary(f, n_max)
        assert not bases_built
        assert sol.coeff_sq_sum <= sol.f_norm_sq + 1e-12 and sol.projection_error <= 1e-13, p
        pts = oracles.unit_vectors(rng, p, 8) * rng.uniform(0.0, 0.8, size=(8, 1))
        pts[0] *= 0.8 / np.linalg.norm(pts[0])
        assert np.max(np.abs(poisson_eval(f, pts, quad_degree=64) - series_eval(sol, pts))) <= 1e-13, p


def test_callable_projection_rule_follows_n_max():
    f = builtin_boundary(2, "exponential")
    for n_max in (19, 20, 60):
        sol = project_boundary(f, n_max)
        assert sol.coeff_sq_sum <= sol.f_norm_sq + 1e-8
        assert sol.projection_error <= 1e-13, n_max
    # up to n_max 19 the default degree-40 rule is unchanged
    default, fixed = project_boundary(f, 19), project_boundary(f, 19, quad_degree=40)
    assert default.quad_degree == 40 and default.coeffs == fixed.coeffs


@pytest.mark.parametrize("p, n_max, q", [(2, 8, 40), (3, 8, 20), (4, 6, 16), (5, 5, 12), (6, 4, 10)])
def test_moment_projection_matches_member_evaluation(p, n_max, q):
    rng = np.random.default_rng(p)
    u = oracles.unit_vectors(rng, p, 1)[0]
    f = BoundaryData.from_callable(p, lambda x: np.exp(x @ u) + x[:, 0] * x[:, -1])
    sol = project_boundary(f, n_max, quad_degree=q)
    want = oracles.evaluated_projection(f, n_max, q)
    assert max(abs(a - b) for ra, rb in zip(sol.coeffs, want) for a, b in zip(ra, rb)) <= 1e-13
    # the rule is the product of p - 2 t axes and phi, each of several nodes, so
    # from p = 4 on the transform passes through two t levels or more
    axes = [nodes for nodes, _ in _rule_axes(p, q)]
    assert len(axes) == p - 1 and min(map(len, axes)) > 1
    assert math.prod(map(len, axes)) == len(sphere_quadrature(p, q))


# q below 2 n_max + 2 leaves the rule inexact for the products, but both routes sum the same rule
@pytest.mark.parametrize(
    "p, n_max, q", [(2, 8, 40), (3, 8, 20), (4, 6, 10), (5, 4, 8), (6, 3, 6), (3, 0, 4), (6, 0, 2)]
)
def test_axis_moments_match_the_graded_tables(p, n_max, q):
    """The transform's axis-by-axis sums against the members' power-basis rows on every node."""
    rng = np.random.default_rng(10 + p)
    u = oracles.unit_vectors(rng, p, 1)[0]
    f = BoundaryData.from_callable(p, lambda x: np.exp(x @ u) + x[:, 0] * x[:, -1])
    rule = sphere_quadrature(p, q)
    vals = f.values_at(rule.nodes)
    weighted = rule.weights * vals
    want = np.concatenate([(oracles.power_rows(rule.nodes, b.exponents) @ b.coeffs.T).T @ weighted
                           for b in map(orthonormalize, [p] * (n_max + 1), range(n_max + 1))])
    got = sphere_transform(weighted, p, n_max, q)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    coeffs, f_norm_sq = bvp._rule_transform(f, n_max, q)
    assert np.array_equal(coeffs, got) and f_norm_sq == float(weighted @ vals)


def test_a_second_projection_builds_no_transform_table(monkeypatch):
    """The circle and t tables depend on (p, n_max, degree) alone: a second callable projection only sums."""
    calls = []

    def spy(name):
        real = getattr(harmonic, name)
        return lambda *args: calls.append(name) or real(*args)

    for name in ("harmonic_chunks", "_profiles"):
        monkeypatch.setattr(harmonic, name, spy(name))
    f = builtin_boundary(4, "exponential")
    harmonic._transform_tables.cache_clear()
    first = project_boundary(f, 6)
    assert "harmonic_chunks" in calls and "_profiles" in calls  # the spies see the build
    calls.clear()
    second = project_boundary(f, 6)
    assert calls == [] and second == first


def test_high_degree_callable_projection_at_p4(bases_built):
    # 10,416 coefficients on rules of 65,536 and 71,874 nodes, and no basis built
    sol = project_boundary(builtin_boundary(4, "exponential"), 30)
    assert not bases_built
    assert sol.coeff_sq_sum <= sol.f_norm_sq + 1e-12
    assert sol.projection_error <= 1e-13


def test_polynomial_moments_are_exact():
    terms = {(0, 0, 0, 0): Fraction(1, 3), (2, 1, 0, 0): Fraction(-5, 7), (0, 0, 2, 2): Fraction(3, 2),
             (1, 0, 0, 3): Fraction(2), (0, 4, 0, 0): Fraction(-1, 9)}
    poly = ExactPolynomial(4, terms)
    sol = project_boundary(BoundaryData.from_polynomial(poly), 5)
    assert sol.projection_error == 0.0
    exact = PiRational(0)
    for a, ca in terms.items():
        for b, cb in terms.items():
            exact = exact + ca * cb * monomial_sphere_integral(tuple(x + y for x, y in zip(a, b)))
    assert abs(sol.f_norm_sq - float(exact)) <= 1e-14 * float(exact)
    # degree-4 data lies in harmonics of degree <= 4, so Parseval holds at n_max 5
    assert abs(sol.coeff_sq_sum - float(exact)) <= 1e-13 * float(exact)


@pytest.mark.parametrize("p, n", [(2, 3), (3, 2), (4, 3), (5, 2)])
def test_projecting_a_member_returns_its_unit_vector(p, n):
    basis = orthonormalize(p, n)
    j = len(basis.members) // 2
    data = [
        BoundaryData.from_polynomial(basis.members[j]),
        BoundaryData.from_callable(p, lambda x: basis.evaluate_members(x)[:, j]),
    ]
    for f in data:
        sol = project_boundary(f, n + 1)
        for k, row in enumerate(sol.coeffs):
            want = np.eye(len(row))[j] if k == n else np.zeros(len(row))
            assert np.max(np.abs(np.array(row) - want)) <= 1e-13, (k, f.degree)


def test_float_polynomial_data_is_converted_exactly():
    member = orthonormalize(4, 3).members[5]
    f = BoundaryData.from_polynomial(member)
    assert type(f.polynomial) is ExactPolynomial
    assert f.polynomial.terms == {a: Fraction(c) for a, c in member.terms.items()}
    assert all(float(c) == member.terms[a] for a, c in f.polynomial.terms.items())
    # the moments are exact sums, each rounded once
    sol = project_boundary(f, 4)
    exact = PiRational(0)
    for a, ca in f.polynomial.terms.items():
        for b, cb in f.polynomial.terms.items():
            exact = exact + ca * cb * monomial_sphere_integral(tuple(x + y for x, y in zip(a, b)))
    assert sol.projection_error == 0.0
    assert sol.f_norm_sq == float(exact)
    for bad in ({(0, 0, 0): 1}, "x1", 1.0):
        with pytest.raises(TypeError):
            BoundaryData(p=3, polynomial=bad)
    assert BoundaryData.from_polynomial(FloatPolynomial(3, {(1, 0, 0): 0.1})).polynomial.terms == {
        (1, 0, 0): Fraction(0.1)
    }


def _chunk_rows(p, n_max):
    """Points per chunk of harmonic_chunks: the length of a first chunk of CHUNK_ELEMENTS points."""
    return next(harmonic_chunks(np.zeros((CHUNK_ELEMENTS, p)), p, n_max))[0].stop


def test_member_batch_across_a_chunk_boundary_matches_single_points():
    rng = np.random.default_rng(8)
    count = _chunk_rows(4, 6) + 5
    pts = oracles.unit_vectors(rng, 4, count) * rng.uniform(0.0, 1.0, size=(count, 1))
    chunks = list(harmonic_chunks(pts, 4, 6))
    assert len(chunks) > 1 and chunks[-1][0].stop >= count
    batch = np.hstack([values for _, values in chunks])
    for i in (0, chunks[0][0].stop - 1, chunks[0][0].stop, count - 1):
        [(_, single)] = harmonic_chunks(pts[i], 4, 6)
        assert np.array_equal(batch[:, i], single[:, 0]), i
    # the chunk body on every point at once, as `series_eval` runs it within a chunk, gives the same bits
    coords = pts.T
    assert np.array_equal(harmonic._member_values(coords, np.add.accumulate(coords * coords), 4, 6, 0), batch)
    assert list(harmonic_chunks(pts[:0], 4, 6)) == []
    for wrong in (pts[:, :3], pts[0, :3].tolist(), pts[None]):
        with pytest.raises(ValueError, match="points of dimension"):
            next(harmonic_chunks(wrong, 4, 6))


def test_series_batch_beyond_one_chunk_matches_single_points():
    f = BoundaryData.from_polynomial(
        ExactPolynomial(4, {(1, 2, 0, 0): Fraction(3, 4), (0, 0, 0, 5): Fraction(-1, 2), (0, 0, 0, 0): Fraction(2)})
    )
    sol = project_boundary(f, 6)
    rng = np.random.default_rng(7)
    count = 2 * _chunk_rows(4, 6) + 5
    pts = oracles.unit_vectors(rng, 4, count) * rng.uniform(0.0, 1.0, size=(count, 1))
    batch = series_eval(sol, pts)
    single = np.array([series_eval(sol, x) for x in pts])
    assert np.max(np.abs(batch - single)) <= 1e-14
    # at the centre only the constant term survives
    assert series_eval(sol, np.zeros(4)) == sol.coeffs[0][0] * orthonormalize(4, 0).evaluate_members(np.zeros(4))[0, 0]



@pytest.mark.parametrize("p, n_max", [(2, 8), (3, 40), (4, 6), (5, 4), (6, 3)])
def test_one_point_series_value_is_its_batch_row_bit_for_bit(p, n_max):
    rng = np.random.default_rng(p)
    # callable data needs a sphere rule, which at p = 6 is too large for the default degree
    f = builtin_boundary(p, "exponential") if p < 6 else BoundaryData.from_polynomial(_random_polynomial(rng, p, 3, 4))
    sol = project_boundary(f, n_max)
    pts = oracles.unit_vectors(rng, p, 8) * rng.uniform(0.0, 1.0, size=(8, 1))
    pts[0], pts[1] = 0.0, oracles.unit_vectors(rng, p, 1)[0]
    for x in pts:
        value = series_eval(sol, x)
        assert isinstance(value, float) and value == series_eval(sol, x[None])[0]
        assert series_eval(sol, x.tolist()) == value
    axis = np.eye(p, dtype=int)[-1]  # |x| = 1 in integers
    assert series_eval(sol, axis) == series_eval(sol, axis.tolist()) == series_eval(sol, axis.astype(float))
    for wrong in (np.float64(0.5), np.zeros(p + 1)):
        with pytest.raises(ValueError, match="point dimension"):
            series_eval(sol, wrong)
    for outside in (np.full(p, np.nan), pts[1] * (1 + 2e-12)):
        with pytest.raises(ValueError, match="defined on the closed unit ball"):
            series_eval(sol, outside)

@pytest.mark.parametrize("p", range(2, 7))
def test_sphere_moments_are_the_exact_monomial_integrals(p):
    # the recursion's degree-0 integrals, which give f_norm_sq, against geometry's integral for beta in {0..4}^p
    memo = {}
    for beta in itertools.product(range(5), repeat=p):
        assert harmonic._member_integrals(p, 0, beta, memo) == (monomial_sphere_integral(beta).coeff,), beta


def _random_polynomial(rng, p, degree, count):
    """`count` seeded terms of degree <= `degree` (one of degree exactly `degree`) with small rational coefficients."""
    terms = {}
    for k in range(count):
        total = degree if k == 0 else int(rng.integers(0, degree + 1))
        alpha = tuple(int(a) for a in rng.multinomial(total, [1 / p] * p))
        terms[alpha] = Fraction(int(rng.choice([-1, 1]) * rng.integers(1, 20)), int(rng.integers(1, 12)))
    return ExactPolynomial(p, terms)


@pytest.mark.parametrize("p", range(2, 7))
def test_polynomial_coefficients_are_the_raw_member_integrals_bit_for_bit(p):
    # oracle: <f, raw> and <raw, raw> summed from geometry's monomial integrals over each raw member's terms,
    # then <f, raw> / sqrt(<raw, raw>) rounded once, exactly as the transform rounds it
    rng = np.random.default_rng(80 + p)
    for _ in range(3):
        poly = _random_polynomial(rng, p, int(rng.integers(0, 7 if p < 5 else 5)), 4)
        sol = project_boundary(BoundaryData.from_polynomial(poly), poly.degree() + 1)
        for n, row in enumerate(sol.coeffs):
            if n > poly.degree():
                assert all(c == 0.0 for c in row), n
                continue
            for c, raw in zip(row, harmonic.harmonic_basis_raw(p, n)):
                dot, norm = (sum((a * b * monomial_sphere_integral(tuple(x + y for x, y in zip(alpha, beta)))
                                  for alpha, a in raw.terms.items() for beta, b in g.terms.items()), PiRational(0))
                             for g in (poly, raw))
                exact = dot * dot / norm
                root = harmonic._sqrt_pi(exact.coeff.numerator, exact.coeff.denominator, exact.pi_half)
                assert c == (-root if dot.coeff < 0 else root), (poly, n)


def test_polynomial_projection_builds_no_member_matrix(monkeypatch):
    # 4 terms of degree 12 at p = 6: the recursion alone, no `_members` matrix and no `_ladder` rung
    def no_build(*args):
        raise AssertionError("a member matrix was built")

    monkeypatch.setattr(harmonic, "_members", no_build)
    monkeypatch.setattr(harmonic, "_ladder", no_build)
    poly = _random_polynomial(np.random.default_rng(83), 6, 12, 4)
    sol = project_boundary(BoundaryData.from_polynomial(poly), 12)
    # f|_S lies in the harmonics of degree <= 12, so Parseval holds to rounding
    assert sol.coeff_sq_sum == pytest.approx(sol.f_norm_sq, rel=1e-12)


def test_polynomial_data_past_the_basis_byte_limit_solves():
    # a degree-20 basis matrix at p = 5 would pass RULE_BYTES_LIMIT, but the exact route forms none:
    # only its coefficient output is priced, and x_1^20 at n_max 20 is within it
    assert 8 * harmonic.count_harmonic(5, 20) * math.comb(24, 4) > orthopoly.RULE_BYTES_LIMIT
    with pytest.raises(ValueError, match="MiB"):
        orthonormalize(5, 20)
    sol = project_boundary(BoundaryData.from_polynomial(_monomial(5, (20, 0, 0, 0, 0))), 20)
    assert sol.coeff_sq_sum == pytest.approx(sol.f_norm_sq, rel=1e-12)
