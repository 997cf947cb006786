"""Dirichlet problem for the Laplacian on the unit ball.

Two independent solution routes are implemented: the spherical-harmonic
series with coefficients from boundary projection, and the image-charge
kernel integral.  They share no machinery beyond quadrature, so their
agreement is a meaningful end-to-end check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .geometry import solid_angle, sphere_quadrature
from .harmonic import orthonormalize
from .legendre import generating_function_closed, generating_function_partial
from .orthopoly import _values_on
from .polyalg import ExactPolynomial

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

DEFAULT_CALLABLE_DEGREE = 40


@dataclass(frozen=True)
class BoundaryData:
    """Boundary values on the unit sphere: a polynomial restriction or a callable."""

    p: int
    polynomial: ExactPolynomial | None = None
    func: object = None

    def __post_init__(self):
        if (self.polynomial is None) == (self.func is None):
            raise ValueError("provide exactly one of polynomial or func")
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
    bases: tuple
    quad_degree: int
    projection_error: float
    coeff_sq_sum: float
    f_norm_sq: float


def _project_once(f: BoundaryData, n_max: int, quad_degree: int):
    """Coefficients, bases, and the rule's value of the squared norm of f."""
    rule = sphere_quadrature(f.p, quad_degree)
    vals = f.values_at(rule.nodes)
    weighted = rule.weights * vals
    bases = tuple(orthonormalize(f.p, n) for n in range(n_max + 1))
    coeffs = tuple(
        tuple(float(v) for v in basis.evaluate_members(rule.nodes).T @ weighted)
        for basis in bases
    )
    return coeffs, bases, float(np.sum(weighted * vals))


def project_boundary(
    f: BoundaryData, n_max: int, quad_degree: int | None = None
) -> BvpSolution:
    """Expand boundary data over the orthonormal harmonics of degree <= n_max."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    deg = f.degree
    if deg is not None:
        required = n_max + max(deg, 0)
        if quad_degree is None:
            quad_degree = required
        elif quad_degree < required:
            raise ValueError(
                f"quadrature degree {quad_degree} cannot integrate the "
                f"products exactly; need at least {required}"
            )
        coeffs, bases, _ = _project_once(f, n_max, quad_degree)
        projection_error = 0.0
        norm_rule = sphere_quadrature(f.p, 2 * max(deg, 0))
        vals = f.values_at(norm_rule.nodes)
        f_norm_sq = float(np.sum(norm_rule.weights * vals * vals))
    else:
        if quad_degree is None:
            quad_degree = DEFAULT_CALLABLE_DEGREE
        coeffs, bases, f_norm_sq = _project_once(f, n_max, quad_degree)
        # the next distinct product rule serves as the accuracy report
        refined, _, _ = _project_once(f, n_max, quad_degree + 2)
        projection_error = max(
            (
                abs(a - b)
                for row_a, row_b in zip(coeffs, refined)
                for a, b in zip(row_a, row_b)
            ),
            default=0.0,
        )
    coeff_sq_sum = float(sum(c * c for row in coeffs for c in row))
    if coeff_sq_sum > f_norm_sq + 1e-8:
        raise ValueError(
            "projection coefficients violate the norm bound; "
            "quadrature degree is too low for this boundary data"
        )
    return BvpSolution(
        p=f.p,
        n_max=n_max,
        coeffs=coeffs,
        bases=bases,
        quad_degree=quad_degree,
        projection_error=projection_error,
        coeff_sq_sum=coeff_sq_sum,
        f_norm_sq=f_norm_sq,
    )


def series_eval(sol: BvpSolution, x):
    """Value of the series solution at points of the closed unit ball.

    x of shape (p,) returns a float; shape (m, p) returns an array.  Each
    basis member is a homogeneous polynomial, so evaluating it off the
    sphere supplies the |x|^n damping automatically, and x = 0 survives as
    the constant term alone.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = x[None, :] if single else x
    if pts.ndim != 2 or pts.shape[1] != sol.p:
        raise ValueError("point dimension does not match the solution")
    if np.any(np.linalg.norm(pts, axis=1) > 1 + 1e-12):
        raise ValueError("series solution is defined on the closed unit ball")
    total = np.zeros(pts.shape[0])
    for basis, row in zip(sol.bases, sol.coeffs):
        total += basis.evaluate_members(pts) @ np.asarray(row)
    return float(total[0]) if single else total


def green_function(p: int, x, x0) -> float:
    """Dirichlet Green's function of the unit ball via an image charge."""
    if p < 3:
        raise ValueError("the closed form used here needs at least three dimensions")
    x = np.asarray(x, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    if x.shape != (p,) or x0.shape != (p,):
        raise ValueError("points must have dimension p")
    if np.linalg.norm(x) > 1 + 1e-12:
        raise ValueError("x must lie in the closed unit ball")
    r0 = float(np.linalg.norm(x0))
    if r0 >= 1:
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


def poisson_eval(f: BoundaryData, x0, quad_degree: int = DEFAULT_CALLABLE_DEGREE):
    """Kernel-integral solution at interior points.

    x0 of shape (p,) returns a float; shape (m, p) returns an array.  The
    batch form shares one boundary-value sweep across all points, which is
    the dominant cost on fine rules.
    """
    x0 = np.asarray(x0, dtype=float)
    single = x0.ndim == 1
    pts = x0[None, :] if single else x0
    if pts.ndim != 2 or pts.shape[1] != f.p:
        raise ValueError("point dimension does not match the boundary data")
    r0_sq = np.einsum("ij,ij->i", pts, pts)
    if np.any(r0_sq >= 1):
        raise ValueError("kernel integral is defined for interior points only")
    rule = sphere_quadrature(f.p, quad_degree)
    weighted = rule.weights * f.values_at(rule.nodes)
    out = np.empty(pts.shape[0])
    for i, x in enumerate(pts):
        kernel = (1.0 - r0_sq[i]) / (1.0 + r0_sq[i] - 2.0 * rule.nodes @ x) ** (f.p / 2.0)
        out[i] = np.dot(weighted, kernel)
    out /= solid_angle(f.p)
    return float(out[0]) if single else out


def generating_function_consistency(p: int, t_grid, r_grid, N: int) -> float:
    """Largest gap between the truncated series and its closed form on a grid."""
    worst = 0.0
    for t in t_grid:
        for r in r_grid:
            a = generating_function_partial(p, t, r, N)
            b = generating_function_closed(p, t, r)
            worst = max(worst, abs(a - b))
    return worst
