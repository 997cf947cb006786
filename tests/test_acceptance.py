"""End-to-end acceptance battery.

Each test covers one acceptance criterion and prints a single PASS or FAIL
line naming it, so a teed pytest run doubles as the sign-off report.
"""

import itertools
import math
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

import oracles
from hyperharm.bvp import (
    BoundaryData,
    green_function,
    poisson_eval,
    project_boundary,
    series_eval,
)
from hyperharm.geometry import (
    PiRational,
    monomial_sphere_integral,
    solid_angle,
    solid_angle_exact,
    sphere_quadrature,
)
from hyperharm.harmonic import (
    count_harmonic,
    count_homogeneous,
    harmonic_basis_raw,
    legendre_harmonic,
    orthonormalize,
)
from hyperharm.legendre import (
    dimension_shift,
    funk_hecke_coeff,
    generating_function_closed,
    generating_function_partial,
    integral_representation_eval,
    legendre_coeffs,
    legendre_eval,
    legendre_norm_sq,
    ode_residual,
    rodrigues_eval,
)
from hyperharm.orthopoly import (
    Poly1D,
    Weight,
    bernstein,
    gram_schmidt,
    inner_product,
    jacobi_rodrigues,
    recurrence_coeffs,
)
from hyperharm.polyalg import ExactPolynomial, evaluate_monomials, random_orthogonal


@contextmanager
def _criterion(label):
    try:
        yield
    except BaseException:
        print(f"FAIL {label}", flush=True)
        raise
    print(f"PASS {label}", flush=True)


def _monomials(p, n):
    """All exponent multi-indices of total degree n in p variables."""
    if n < 0:
        return
    for bars in itertools.combinations(range(n + p - 1), p - 1):
        alpha = []
        prev = -1
        for b in bars:
            alpha.append(b - prev - 1)
            prev = b
        alpha.append(n + p - 2 - prev)
        yield tuple(alpha)


def _laplacian_rank(p, n):
    """Exact rank of the second-derivative sum on degree-n monomials."""
    cols = list(_monomials(p, n))
    row_index = {m: i for i, m in enumerate(_monomials(p, n - 2))}
    if not row_index:
        return 0
    mat = [[Fraction(0)] * len(cols) for _ in row_index]
    for j, alpha in enumerate(cols):
        for k in range(p):
            if alpha[k] >= 2:
                beta = list(alpha)
                beta[k] -= 2
                mat[row_index[tuple(beta)]][j] += alpha[k] * (alpha[k] - 1)
    rank = 0
    for col in range(len(cols)):
        pivot = next(
            (r for r in range(rank, len(mat)) if mat[r][col] != 0), None
        )
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = 1 / mat[rank][col]
        mat[rank] = [v * inv for v in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                f = mat[r][col]
                mat[r] = [v - f * w for v, w in zip(mat[r], mat[rank])]
        rank += 1
        if rank == len(mat):
            break
    return rank


def test_criterion_01_solid_angles():
    with _criterion("criterion-01 exact solid angles and quadrature weight sums"):
        assert solid_angle_exact(2) == PiRational(Fraction(2), 2)
        assert solid_angle_exact(3) == PiRational(Fraction(4), 2)
        assert solid_angle_exact(1) == PiRational(Fraction(2), 0)
        for p in range(2, 7):
            omega = solid_angle(p)
            for degree in (0, 3, 8, 13):
                rule = sphere_quadrature(p, degree)
                assert abs(rule.weights.sum() - omega) <= 1e-12 * omega, (
                    p,
                    degree,
                )


def test_criterion_02_dimension_counts():
    with _criterion("criterion-02 homogeneous and harmonic dimension counts"):
        for p in range(2, 6):
            for n in range(0, 7):
                assert count_homogeneous(p, n) == oracles.monomial_count(p, n)
                brute = count_homogeneous(p, n) - _laplacian_rank(p, n)
                assert count_harmonic(p, n) == brute, (p, n)
                # the members' full sphere Gram, summed in Python integers by the
                # oracle, is the stored positive diagonal, so they have rank N
                norms = orthonormalize(p, n).gram_blocks
                assert len(norms) == count_harmonic(p, n)
                assert all(type(v) is int and v > 0 for v in norms)
                for indices, block in oracles.object_gram_blocks(p, n, harmonic_basis_raw(p, n)):
                    assert block == tuple(tuple(norms[i] if i == k else 0 for k in indices) for i in indices)


def test_criterion_03_exact_harmonicity():
    with _criterion("criterion-03 exact harmonicity of basis polynomials"):
        for p in range(2, 7):
            for n in range(0, 9):
                for q in harmonic_basis_raw(p, n):
                    assert q.is_homogeneous() == n
                    assert q.laplacian().is_zero()
                zonal = legendre_harmonic(p, n)
                assert zonal.is_homogeneous() == n
                assert zonal.laplacian().is_zero()


def test_criterion_04_legendre_battery():
    with _criterion("criterion-04 one-dimensional profile battery"):
        cheb = oracles.chebyshev_rows(10)
        classical = oracles.classical_legendre_rows(10)
        grid = np.linspace(-1, 1, 201)
        probe = np.linspace(-1, 1, 21)
        for n in range(11):
            assert legendre_coeffs(2, n).coeffs == cheb[n]
            assert legendre_coeffs(3, n).coeffs == classical[n]
        for p in range(2, 8):
            w = Weight(Fraction(p - 3, 2), Fraction(p - 3, 2))
            polys = [legendre_coeffs(p, n) for n in range(11)]
            for n in range(11):
                assert np.max(np.abs(legendre_eval(p, n, grid))) <= 1 + 1e-12
                rod = np.array([rodrigues_eval(p, n, t) for t in probe])
                assert np.max(np.abs(rod - legendre_eval(p, n, probe))) <= 1e-9
                if p >= 3:
                    rep = np.array(
                        [integral_representation_eval(p, n, t) for t in probe]
                    )
                    assert (
                        np.max(np.abs(rep - legendre_eval(p, n, probe)))
                        <= 1e-9
                    )
                assert np.max(np.abs(ode_residual(p, n, grid))) <= 1e-10 * (
                    1 + n * n
                )
                norm = inner_product(polys[n], polys[n], w)
                want = legendre_norm_sq(p, n)
                assert abs(norm - want) <= 1e-10 * want
                for m in range(n):
                    assert abs(inner_product(polys[n], polys[m], w)) <= 1e-10


def test_criterion_05_addition_theorem():
    with _criterion("criterion-05 addition theorem under sampling and rotation"):
        rng = np.random.default_rng(2024)
        for p in (3, 4, 5):
            for n in range(0, 7):
                basis = orthonormalize(p, n)
                scale = solid_angle(p) / count_harmonic(p, n)
                xis = oracles.unit_vectors(rng, p, 100)
                etas = oracles.unit_vectors(rng, p, 100)
                lhs = scale * np.sum(
                    basis.evaluate_members(xis) * basis.evaluate_members(etas),
                    axis=1,
                )
                rhs = legendre_eval(p, n, np.sum(xis * etas, axis=1))
                assert np.max(np.abs(lhs - rhs)) <= 1e-8, (p, n)
        from hyperharm.harmonic import addition_theorem_eval

        rng = np.random.default_rng(77)
        for p in (3, 4, 5):
            basis = orthonormalize(p, 4)
            xi = oracles.unit_vectors(rng, p, 1)[0]
            eta = oracles.unit_vectors(rng, p, 1)[0]
            base = addition_theorem_eval(basis, xi, eta)
            for k in range(10):
                rot = random_orthogonal(p, seed=100 + k)
                moved = addition_theorem_eval(basis, rot @ xi, rot @ eta)
                assert abs(moved - base) <= 1e-9, (p, k)


def test_criterion_06_zonal_integral_identity():
    with _criterion("criterion-06 zonal kernel eigenvalue identity"):
        kernels = [
            Poly1D((Fraction(1),)),
            Poly1D((0, 1)),
            Poly1D((0, 0, 1)),
            Poly1D((0, 0, 0, 1)),
            Poly1D((0, 0, -1, 0, 1)),
            Poly1D((-1, 1, 0, 0, 0, 0, 1)),
        ]
        rng = np.random.default_rng(311)
        for p in (3, 4, 5):
            rule = sphere_quadrature(p, 12)
            for n in range(0, 5):
                basis = orthonormalize(p, n)
                eta = oracles.unit_vectors(rng, p, 1)[0]
                dots = rule.nodes @ eta
                for f in kernels:
                    lam = funk_hecke_coeff(p, n, f)
                    fvals = f(dots)
                    for j in (0, len(basis.members) - 1):
                        member = basis.members[j]
                        lhs = np.sum(
                            rule.weights
                            * fvals
                            * member.evaluate_array(rule.nodes)
                        )
                        rhs = lam * member.evaluate_array(eta[None, :])[0]
                        assert abs(lhs - rhs) <= 1e-7, (p, n, j)


def test_criterion_07_generating_function():
    with _criterion("criterion-07 generating function partial sums"):
        grid = np.linspace(-1, 1, 11)
        for p in (3, 4, 5):
            for r in (0.1, 0.3, 0.5):
                for t in grid:
                    partial = generating_function_partial(p, t, r, 60)
                    closed = generating_function_closed(p, t, r)
                    assert abs(partial - closed) <= 1e-8, (p, r, t)
                pole = generating_function_partial(p, 1.0, r, 60)
                want = (1 + r) / (1 - r) ** (p - 1)
                assert abs(pole - want) <= 1e-10, (p, r)


def _bvp_datasets(p):
    e = lambda *pairs: ExactPolynomial(
        p,
        {
            tuple(alpha) + (0,) * (p - len(alpha)): Fraction(c)
            for alpha, c in pairs
        },
    )
    last = (0,) * (p - 1) + (1,)
    return [
        e(((0,) * p, 1)),
        e(((1,), 1)),
        ExactPolynomial(p, {(1, 1) + (0,) * (p - 2): Fraction(1), last: Fraction(1)}),
        e(((3,), 1), ((1, 2), 1)),
        e(((2, 2), 1), ((0, 0, 1), 1)),
    ]


def test_criterion_08_dirichlet_ball():
    with _criterion("criterion-08 two solution routes for the ball problem"):
        rng = np.random.default_rng(808)
        for p in (3, 4, 5):
            dirs = oracles.unit_vectors(rng, p, 50)
            radii = 0.8 * rng.uniform(0.0, 1.0, size=50) ** (1.0 / p)
            radii[0] = 0.8
            pts = dirs * radii[:, None]
            for poly in _bvp_datasets(p):
                f = BoundaryData.from_polynomial(poly)
                sol = project_boundary(f, 4)
                series = np.array([series_eval(sol, x) for x in pts])
                kernel = poisson_eval(f, pts, quad_degree=68)
                assert np.max(np.abs(series - kernel)) <= 1e-6, (p, str(poly))
            for n in (1, 2, 3):
                zonal = legendre_harmonic(p, n)
                sol = project_boundary(BoundaryData.from_polynomial(zonal), n)
                sample = oracles.unit_vectors(rng, p, 20) * rng.uniform(
                    0.0, 1.0, size=(20, 1)
                )
                zf = zonal.to_float()
                for x in sample:
                    got = series_eval(sol, x)
                    want = zf.evaluate_array(x[None, :])[0]
                    assert abs(got - want) <= 1e-9, (p, n)
            x0 = 0.35 * oracles.unit_vectors(rng, p, 1)[0]
            for x in oracles.unit_vectors(rng, p, 5):
                assert abs(green_function(p, x, x0)) <= 1e-12


def test_criterion_09_orthogonal_family_toolkit():
    with _criterion("criterion-09 weighted family constructions agree"):
        weights = [
            Weight(Fraction(0), Fraction(0)),
            Weight(Fraction(-1, 2), Fraction(-1, 2)),
            Weight(Fraction(1, 2), Fraction(1, 2)),
            Weight(Fraction(2), Fraction(2)),
            Weight(Fraction(1), Fraction(0)),
        ]
        grid = np.linspace(-1, 1, 33)
        for w in weights:
            family = gram_schmidt(w, 8)
            for n, phi in enumerate(family):
                rod = jacobi_rodrigues(n, w).monic()
                norm = math.sqrt(inner_product(phi, phi, w))
                diff = phi + rod * (-1)
                err = math.sqrt(abs(inner_product(diff, diff, w)))
                assert err <= 1e-9 * norm, (w, n)
            rec = recurrence_coeffs(family, w)
            for n in range(1, 8):
                lhs = family[n + 1](grid)
                rhs = (rec.A[n] * grid + rec.B[n]) * family[n](
                    grid
                ) - rec.C[n] * family[n - 1](grid)
                assert np.max(np.abs(lhs - rhs)) <= 1e-9, (w, n)
        for n in range(1, 17):
            assert bernstein(lambda x: Fraction(1), n) == Poly1D((Fraction(1),))
            assert bernstein(lambda x: x, n) == Poly1D((0, 1))
            assert bernstein(lambda x: x * x, n) == Poly1D(
                (0, Fraction(1, n), 1 - Fraction(1, n))
            )


def _moment_indices(p):
    base = [
        (0, 0, 0),
        (2, 0, 0),
        (1, 1, 0),
        (1, 0, 0),
        (4, 0, 0),
        (2, 2, 0),
        (3, 1, 0),
        (2, 1, 1),
        (6, 0, 0),
        (4, 2, 0),
        (2, 2, 2),
        (3, 3, 0),
        (5, 1, 0),
        (1, 1, 2),
        (8, 0, 0),
        (0, 4, 0),
        (2, 0, 4),
        (0, 3, 1),
        (7, 1, 0),
        (2, 4, 2),
    ]
    return [alpha + (0,) * (p - 3) for alpha in base]


def test_criterion_10_monomial_moments():
    with _criterion("criterion-10 monomial moments against sampling and rules"):
        rng = np.random.default_rng(123456)
        m = 1_000_000
        for p in (3, 4, 5):
            gauss = rng.normal(size=(m, p))
            units = gauss / np.linalg.norm(gauss, axis=1, keepdims=True)
            omega = solid_angle(p)
            rule = sphere_quadrature(p, 8)
            for alpha in _moment_indices(p):
                exact_mean = float(monomial_sphere_integral(alpha)) / omega
                vals = evaluate_monomials(units, [alpha], [1.0])
                est = vals.mean()
                se = vals.std(ddof=1) / math.sqrt(m)
                assert abs(est - exact_mean) <= 4 * se + 1e-13, (p, alpha)
                node_vals = evaluate_monomials(rule.nodes, [alpha], [1.0])
                quad = float(np.sum(rule.weights * node_vals))
                exact = exact_mean * omega
                assert abs(quad - exact) <= 1e-10 * max(abs(exact), omega), (
                    p,
                    alpha,
                )
