"""Dirichlet problem for the Laplacian on the unit ball.

Two independent solution routes are implemented.  The spherical-harmonic series (`project_boundary`,
`series_eval`) sums the orthonormal members, evaluated by their own recurrence, with coefficients from exact
sphere integrals of polynomial data against the members, by a recursion in the dimension with no member matrix,
or from the semi-naive transform of callable data on a product rule.  The kernel integral is zonal about
x0 / |x0|, so it runs on a per-point rule aligned with that pole: Gauss-Gegenbauer in t = <xi, x0 / |x0|>
times a rule on S^{p-2}, in one array pass over the points of each t rule (`poisson_eval`).  The kernel route
uses no harmonic basis, so the routes share no machinery beyond quadrature building blocks and their agreement
is a meaningful end-to-end check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import orthopoly
from .geometry import PiRational, solid_angle, sphere_quadrature
from .harmonic import _gram_scale, _member_integrals, _norms, _sqrt_pi, harmonic_chunks, sphere_transform
from .legendre import generating_function_closed, generating_function_partial
from .orthopoly import _values_on
from .polyalg import CHUNK_ELEMENTS, ExactPolynomial, FloatPolynomial, count_harmonic

__all__ = [
    "BoundaryData",
    "BvpSolution",
    "builtin_boundary",
    "project_boundary",
    "series_eval",
    "green_function",
    "poisson_eval",
    "generating_function_consistency",
]

DEFAULT_CALLABLE_DEGREE = 40  # raised to 2 n_max + 2 so that products of members integrate exactly
# kernel rule: error target relative to the kernel's peak and a cap on the t nodes (one Gauss rule of 2048
# nodes takes ~1.6 s); `poisson_eval` sizes its blocks by `polyalg.CHUNK_ELEMENTS`
KERNEL_TOL = 1e-15
MAX_T_NODES = 2048
# a bound on n_max alone: no route builds the C(n_max + p, p) monomials of degree <= n_max that it counts
# (p = 4, n_max = 30 has 46,376), but it bounds `sphere_transform`'s tables (`harmonic._transform_tables`)
MONOMIAL_BUDGET = 100_000


@dataclass(frozen=True)
class BoundaryData:
    """Boundary values on the unit sphere: a polynomial restriction or a callable.

    A FloatPolynomial is stored exactly, as an ExactPolynomial."""

    p: int
    polynomial: ExactPolynomial | None = None
    func: object = None

    def __post_init__(self):
        if (self.polynomial is None) == (self.func is None):
            raise ValueError("provide exactly one of polynomial or func")
        if isinstance(self.polynomial, FloatPolynomial):
            # a float is a dyadic rational, so Fraction(c) converts it exactly
            terms = {a: Fraction(c) for a, c in self.polynomial.terms.items()}
            object.__setattr__(self, "polynomial", ExactPolynomial(self.polynomial.nvars, terms))
        elif self.polynomial is not None and not isinstance(self.polynomial, ExactPolynomial):
            raise TypeError("polynomial data must be an ExactPolynomial or a FloatPolynomial")
        if self.polynomial is not None and self.polynomial.nvars != self.p:
            raise ValueError("polynomial variable count must match p")
        if self.p < 2:
            raise ValueError("dimension must be at least 2")

    @classmethod
    def from_polynomial(cls, poly: ExactPolynomial) -> "BoundaryData":
        return cls(p=poly.nvars, polynomial=poly)

    @classmethod
    def from_callable(cls, p: int, func) -> "BoundaryData":
        return cls(p=p, func=func)

    @property
    def degree(self):
        """Polynomial degree, or None for callable data."""
        return self.polynomial.degree() if self.polynomial is not None else None

    def values_at(self, points: np.ndarray) -> np.ndarray:
        """The data at each row of `points`; a polynomial's value at a row is that row's own, whatever the call."""
        if self.polynomial is not None:
            return self.polynomial.evaluate_array(points)
        vals = _values_on(self.func, points)
        if not np.all(np.isfinite(vals)):
            raise ValueError("boundary data is not finite at a quadrature node")
        return vals


def builtin_boundary(p: int, name: str) -> BoundaryData:
    """Named boundary data used by the command line and the demos."""
    if name == "one":
        return BoundaryData.from_polynomial(ExactPolynomial.constant(p, 1))
    if name == "coordinate":
        return BoundaryData.from_polynomial(ExactPolynomial.variable(p, 0))
    if name == "coordinate-squared":
        poly = ExactPolynomial.monomial(p, (2,) + (0,) * (p - 1))
        return BoundaryData.from_polynomial(poly)
    if name == "exponential":
        return BoundaryData.from_callable(p, lambda pts: np.exp(pts[:, 0]))
    raise ValueError(f"unknown builtin boundary data {name!r}")


@dataclass(frozen=True)
class BvpSolution:
    """Series solution data: one coefficient vector per harmonic degree."""

    p: int
    n_max: int
    coeffs: tuple
    quad_degree: int
    projection_error: float
    coeff_sq_sum: float
    f_norm_sq: float

    @cached_property
    def _vector(self) -> np.ndarray:
        vector = np.concatenate(self.coeffs)
        vector.flags.writeable = False  # shared by every series_eval call on this solution
        return vector


def _rule_transform(f: BoundaryData, n_max: int, quad_degree: int):
    """The coefficients of f on the degree-quad_degree product rule, and the rule's value of |f|^2."""
    rule = sphere_quadrature(f.p, quad_degree)
    vals = f.values_at(rule.nodes)
    weighted = rule.weights * vals
    return sphere_transform(weighted, f.p, n_max, quad_degree), float(weighted @ vals)


def _exact_transform(poly: ExactPolynomial, n_max: int):
    """The coefficients of polynomial data and its |f|^2 from exact sphere integrals, each rounded once.

    Coefficient i of degree n is <f, raw_i> / sqrt(gram_scale N_i), <f, raw_i> summed over f's terms from
    `harmonic._member_integrals` (|f|^2 over f^2's, at degree 0).  f|_S is a sum of harmonics of degree <= deg f
    (P_n = H_n + |x|^2 P_{n-2}), so every coefficient above that degree is 0.0 and nothing is formed for it."""
    p, memo = poly.nvars, {}
    pi_half = _gram_scale(p, 0).pi_half  # every nonzero sphere integral's
    f_norm_sq = sum(c * _member_integrals(p, 0, beta, memo)[0] for beta, c in (poly * poly).terms.items())
    flat, top = np.zeros(sum(count_harmonic(p, n) for n in range(n_max + 1))), 0
    for n in range(min(n_max, poly.degree()) + 1):
        norms, scale = _norms(p, n), _gram_scale(p, n).coeff  # no member matrix, so MONOMIAL_BUDGET bounds it
        columns = [(c, _member_integrals(p, n, beta, memo)) for beta, c in poly.terms.items()]
        for i, v in enumerate(norms):
            a = sum(c * m[i] for c, m in columns if m[i])
            root = _sqrt_pi(a.numerator**2 * scale.denominator, a.denominator**2 * scale.numerator * v, pi_half)
            flat[top] = -root if a < 0 else root
            top += 1
    return flat, float(PiRational(f_norm_sq, pi_half))


def project_boundary(f: BoundaryData, n_max: int, quad_degree: int | None = None) -> BvpSolution:
    """Expand boundary data over the orthonormal harmonics of degree <= n_max.

    Polynomial data builds no rule and no basis: `_exact_transform` gives coefficients rounded
    once and exactly 0.0 above the data's degree, and f_norm_sq rounded once; projection_error is
    0.0, and quad_degree (by default n_max plus the data's degree, the least degree of a product
    rule exact for the products) is only checked against that least degree.  Callable data goes
    through `harmonic.sphere_transform` on the product rule of degree quad_degree (default
    max(DEFAULT_CALLABLE_DEGREE, 2 n_max + 2)); projection_error is the largest coefficient change
    on the rule of degree quad_degree + 2, and coeff_sq_sum past f_norm_sq is a ValueError.  More
    than MONOMIAL_BUDGET graded monomials is a ValueError, before any work.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    # C(n_max + p, k) grows with k up to min(n_max, p), so huge inputs stop within a few steps
    count = 1
    for k in range(1, min(n_max, f.p) + 1):
        count = count * (n_max + f.p + 1 - k) // k
        if count > MONOMIAL_BUDGET:
            raise ValueError(f"n_max = {n_max} at p = {f.p} needs more than the budget of "
                             f"{MONOMIAL_BUDGET} graded monomials")
    projection_error = 0.0
    if f.polynomial is None:
        quad_degree = max(DEFAULT_CALLABLE_DEGREE, 2 * n_max + 2) if quad_degree is None else quad_degree
        flat, f_norm_sq = _rule_transform(f, n_max, quad_degree)
        projection_error = float(np.max(np.abs(flat - _rule_transform(f, n_max, quad_degree + 2)[0])))
    else:
        required = n_max + max(f.degree, 0)
        quad_degree = required if quad_degree is None else quad_degree
        if quad_degree < required:
            raise ValueError(f"quadrature degree {quad_degree} cannot integrate the products "
                             f"exactly; need at least {required}")
        flat, f_norm_sq = _exact_transform(f.polynomial, n_max)
    ends = np.cumsum([count_harmonic(f.p, n) for n in range(n_max + 1)])
    coeffs = tuple(tuple(row.tolist()) for row in np.split(flat, ends[:-1]))
    coeff_sq_sum = float(sum(c * c for row in coeffs for c in row))
    if f.polynomial is None and coeff_sq_sum > f_norm_sq + 1e-8:
        raise ValueError(f"projection coefficients violate the norm bound: coeff_sq_sum {coeff_sq_sum!r} > "
                         f"f_norm_sq {f_norm_sq!r}; the degree-{quad_degree} quadrature is too low for this "
                         "boundary data")
    return BvpSolution(p=f.p, n_max=n_max, coeffs=coeffs, quad_degree=quad_degree,
                       projection_error=projection_error, coeff_sq_sum=coeff_sq_sum, f_norm_sq=f_norm_sq)


def series_eval(sol: BvpSolution, x):
    """Value of the series solution at points of the closed unit ball.

    x of shape (p,) returns a float; shape (m, p) returns an array.  Members
    from `harmonic.harmonic_chunks` carry |x|^n off the sphere (x = 0 keeps the
    constant term alone); x is checked once, |x| from the recurrence's sums.
    """
    x = np.asarray(x, dtype=float)
    pts = np.atleast_2d(x)
    if pts.ndim != 2 or pts.shape[1] != sol.p:
        raise ValueError("point dimension does not match the solution")
    sums = np.add.accumulate(pts * pts, axis=1)
    if not (np.sqrt(sums[:, -1]) <= 1 + 1e-12).all():  # NaN fails
        raise ValueError("series solution is defined on the closed unit ball")
    total = np.empty(pts.shape[0])
    for rows, values in harmonic_chunks(pts, sol.p, sol.n_max, 0, sums):
        total[rows] = sol._vector @ values
    return float(total[0]) if x.ndim == 1 else total


def green_function(p: int, x, x0) -> float:
    """Dirichlet Green's function of the unit ball via an image charge."""
    if p < 3:
        raise ValueError("the closed form used here needs at least three dimensions")
    x = np.asarray(x, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    if x.shape != (p,) or x0.shape != (p,):
        raise ValueError("points must have dimension p")
    if not np.linalg.norm(x) <= 1 + 1e-12:  # NaN fails, here and for x0
        raise ValueError("x must lie in the closed unit ball")
    r0 = float(np.linalg.norm(x0))
    if not r0 < 1:
        raise ValueError("x0 must lie in the open unit ball")
    rho = float(np.linalg.norm(x - x0))
    if rho == 0.0:
        raise ValueError("Green's function is singular at x = x0")
    scale = 1.0 / ((2 - p) * solid_angle(p))
    if r0 == 0.0:
        return scale * (rho ** (2 - p) - 1.0)
    image = x0 / r0**2
    rho_image = float(np.linalg.norm(x - image))
    return scale * (rho ** (2 - p) - (r0 * rho_image) ** (2 - p))


def _slice_rule(p: int, degree: int):
    """Nodes in R^{p-1} and weights of a degree-`degree` rule on S^{p-2} (S^0 is +-1)."""
    if p == 2:
        return np.array([[-1.0], [1.0]]), np.ones(2)
    rule = sphere_quadrature(p - 1, degree)
    return rule.nodes, rule.weights


def _t_rule(p: int, r: float, degree: int):
    """Gauss-Gegenbauer rule in t = <xi, u> for the kernel about a point at radius r.

    The kernel's pole t* = (1 + r^2) / (2r) sets the Bernstein ellipse 1/r,
    so m nodes leave an error of order r^(2m).  m brings it under KERNEL_TOL
    times the kernel's peak (1 + r) / (1 - r)^(p-1), adds (degree + 2) // 2
    nodes for the data's polynomial part, is rounded up to a multiple of 8
    (few distinct rules to cache) and is capped at MAX_T_NODES, which only
    points within about 0.01 of the sphere reach.
    """
    m = (degree + 2) // 2
    if r > 0.0:
        m += math.ceil(math.log(KERNEL_TOL * (1.0 - r) ** (p - 1) / (1.0 + r)) / (2.0 * math.log(r)))
    m = min(-(-m // 8) * 8, MAX_T_NODES)
    half = (p - 3) / 2  # a float: exact, and cheaper to check and key than a Fraction
    return orthopoly.gauss_rule(orthopoly.Weight(half, half), m)


def _complement_frames(u: np.ndarray) -> np.ndarray:
    """First p-1 columns of the Householder H with H e_p = u, per row u of a (G, p) array: bases of u's complement.
    H = I - 2 v v^T / v^T v with v = e_p - u; 1 - u_p is |u_head|^2 / (1 + |u_p|) when u_p > 0, against cancellation
    (|u_p|: no row divides by 0), and H = I where |u_head|^2 is 0.  A row's dots are BLAS calls of its own."""
    head_sq = (u[:, None, :-1] @ u[:, :-1, None])[:, 0, 0]
    v = -u
    v[:, -1] = np.where(u[:, -1] > 0.0, head_sq / (1.0 + np.abs(u[:, -1])), 1.0 - u[:, -1])
    scale = 2.0 / np.where(head_sq > 0.0, (v[:, None] @ v[:, :, None])[:, 0, 0], np.inf)
    return np.eye(u.shape[1], u.shape[1] - 1) - scale[:, None, None] * (v[:, :, None] * v[:, None, :-1])


def poisson_eval(f: BoundaryData, x0, quad_degree: int | None = None):
    """Kernel-integral solution at interior points, on a pole-aligned rule.

    x0 of shape (p,) returns a float; shape (m, p) returns an array.  The
    Poisson kernel (1 - r^2) / (1 + r^2 - 2rt)^(p/2) depends on a boundary
    point xi only through t = <xi, u>, r = |x0|, u = x0 / r (u = e_p at
    r = 0).  The sphere is sliced about u with the measure identity
    dsigma_{p-1} = (1 - t^2)^((p-3)/2) dt dsigma_{p-2}: a Gauss-Gegenbauer
    rule in t (see `_t_rule`) times a degree-d rule on S^{p-2} placed in
    u's complement by `_complement_frames`, with nodes
    xi = t u + sqrt(1 - t^2) H [eta; 0].

    For polynomial data d is the data's degree, so the S^{p-2} rule is
    exact for every t; quad_degree, if given, must be at least that degree
    and is otherwise unused.  For callable data d is quad_degree, by
    default DEFAULT_CALLABLE_DEGREE.  The points of one t rule share blocks
    of t nodes and data calls sized by `polyalg.CHUNK_ELEMENTS`, but each
    point's sums are BLAS calls on its own nodes, so a batch equals one call
    per point, bit for bit, unless callable data's values depend on the call.

    The t rule is capped at MAX_T_NODES, so accuracy falls within about 0.01
    of the sphere.  For data x_1 + x_1 x_2 the largest error against the
    series over 32 random directions is, at |x0| = 0.99, 0.995 and 0.999,
    1.6e-12, 1.7e-8 and 9e-2 for p = 3 and 4.5e-13, 1.4e-7 and 0.15 for p = 5.
    No error estimate is returned.
    """
    deg = f.degree
    if quad_degree is not None and quad_degree < 0:
        raise ValueError("quadrature degree must be nonnegative")
    if deg is not None:
        if quad_degree is not None and quad_degree < deg:
            raise ValueError(f"quadrature degree {quad_degree} is below the boundary data's degree {deg}")
        degree = max(deg, 0)
    else:
        degree = DEFAULT_CALLABLE_DEGREE if quad_degree is None else quad_degree
    x0 = np.asarray(x0, dtype=float)
    pts = np.atleast_2d(x0)
    p = f.p
    if pts.ndim != 2 or pts.shape[1] != p:
        raise ValueError("point dimension does not match the boundary data")
    radii = [math.hypot(*x) for x in pts]
    if any(not r < 1.0 for r in radii):
        raise ValueError("kernel integral is defined for interior points only")
    eta, eta_weights = _slice_rule(p, degree)
    size = len(eta_weights) * p  # entries of one t node's ring of nodes
    groups = {}  # the points of each t rule, by its size
    for i, rule in enumerate(_t_rule(p, r, degree) for r in radii):
        groups.setdefault(len(rule.nodes), (rule, []))[1].append(i)
    gap_sq = np.array([(1.0 - r) ** 2 for r in radii])  # Python's pow: np.square differs in ~0.1% of last bits
    radii = np.array(radii)
    out = np.empty(len(pts))
    for rule, index in groups.values():
        t = rule.nodes
        rows = max(1, min(len(t), CHUNK_ELEMENTS // size))  # t nodes per block
        step = max(1, CHUNK_ELEMENTS // (rows * size))  # points per data call
        for at in range(0, len(index), step):
            idx = index[at : at + step]
            r = radii[idx][:, None]
            u = np.divide(pts[idx], r, out=np.eye(1, p, p - 1).repeat(len(idx), 0), where=r > 0.0)  # e_p at r = 0
            # the S^{p-2} nodes as unit vectors orthogonal to u
            ring = (eta @ _complement_frames(u).transpose(0, 2, 1))[:, None]
            # 1 + r^2 - 2rt, written so that it keeps its digits as r, t -> 1
            dist_sq = gap_sq[idx, None] + 2.0 * r * (1.0 - t)
            weights = rule.weights * ((1.0 - r) * (1.0 + r) / dist_sq ** (p / 2.0))
            ring_sums = np.empty_like(weights)
            for start in range(0, len(t), rows):
                tc = t[start : start + rows, None, None]
                nodes = np.sqrt(1.0 - tc * tc) * ring
                nodes += tc * u[:, None, None]
                vals = f.values_at(nodes.reshape(-1, p)).reshape(len(idx), len(tc), -1)
                ring_sums[:, start : start + rows] = vals @ eta_weights
            out[idx] = (weights[:, None] @ ring_sums[:, :, None])[:, 0, 0]
    out /= solid_angle(p)
    return float(out[0]) if x0.ndim == 1 else out


def generating_function_consistency(p: int, t_grid, r_grid, N: int) -> float:
    """Largest gap between the truncated series and its closed form on a grid."""
    worst = 0.0
    for t in t_grid:
        for r in r_grid:
            a = generating_function_partial(p, t, r, N)
            b = generating_function_closed(p, t, r)
            worst = max(worst, abs(a - b))
    return worst
