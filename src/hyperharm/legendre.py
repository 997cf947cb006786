"""Legendre polynomials attached to the sphere in p dimensions.

P_{n,p} is normalized by P_n(1) = 1 and is orthogonal on [-1, 1] against
the weight (1-t^2)^((p-3)/2).  Exact coefficient tables come from the
three-term recurrence run in rational arithmetic.  The Rodrigues route is
orthopoly's Jacobi Rodrigues formula at alpha = beta = (p-3)/2, and the
integral representation averages over a Gauss rule, so the three routes
share no code and cross-check each other.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .geometry import PiRational, solid_angle, solid_angle_exact, zonal_integral
from .orthopoly import Poly1D, Weight, gauss_rule, jacobi_rodrigues
from .polyalg import count_harmonic

__all__ = [
    "LegendreTable",
    "legendre_coeffs",
    "legendre_eval",
    "rodrigues_eval",
    "ode_residual",
    "legendre_norm_sq",
    "legendre_norm_sq_exact",
    "dimension_shift",
    "integral_representation_eval",
    "funk_hecke_coeff",
    "generating_function_partial",
    "generating_function_closed",
]

DEFAULT_TABLE_SIZE = 32


def _check_dim(p: int) -> int:
    p = int(p)
    if p < 2:
        raise ValueError("dimension must be at least 2")
    return p


@lru_cache(maxsize=32)  # a full verify and the test suite hold 26 tables
def _coeff_rows(p: int, n_max: int):
    rows = [Poly1D((Fraction(1),))]
    if n_max >= 1:
        rows.append(Poly1D((Fraction(0), Fraction(1))))
    t = Poly1D((Fraction(0), Fraction(1)))
    for k in range(1, n_max):
        nxt = ((2 * k + p - 2) * (t * rows[k]) - k * rows[k - 1]) * Fraction(
            1, k + p - 2
        )
        rows.append(nxt)
    return tuple(rows)


def legendre_coeffs(p: int, n: int) -> Poly1D:
    """Exact monomial coefficients of P_{n,p}."""
    p = _check_dim(p)
    if n < 0:
        raise ValueError("degree must be nonnegative")
    return _coeff_rows(p, max(n, DEFAULT_TABLE_SIZE))[n]


class LegendreTable:
    """Exact coefficient rows P_0 .. P_n_max for one dimension p."""

    __slots__ = ("p", "n_max", "polys")

    def __init__(self, p: int, n_max: int = DEFAULT_TABLE_SIZE):
        self.p = _check_dim(p)
        if n_max < 0:
            raise ValueError("n_max must be nonnegative")
        self.n_max = int(n_max)
        self.polys = tuple(
            _coeff_rows(self.p, max(self.n_max, 1))[: self.n_max + 1]
        )
        for n, poly in enumerate(self.polys):
            if poly.degree != n:
                raise RuntimeError(f"row {n} has degree {poly.degree}")
            if poly(Fraction(1)) != 1:
                raise RuntimeError(f"row {n} is not 1 at t=1")
            if any(c for i, c in enumerate(poly.coeffs) if (i - n) % 2):
                raise RuntimeError(f"row {n} violates parity")

    def __getitem__(self, n: int) -> Poly1D:
        return self.polys[n]

    def __len__(self) -> int:
        return len(self.polys)


def legendre_eval(p: int, n: int, t):
    """P_{n,p}(t) by the forward recurrence; t may be a scalar or array."""
    p = _check_dim(p)
    if n < 0:
        raise ValueError("degree must be nonnegative")
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    prev = np.ones_like(t)
    if n == 0:
        return float(prev) if scalar else prev
    cur = t.copy()
    for k in range(1, n):
        prev, cur = cur, ((2 * k + p - 2) * t * cur - k * prev) / (k + p - 2)
    return float(cur) if scalar else cur


@lru_cache(maxsize=128)  # a full verify and the test suite hold 66
def _rodrigues_poly(p: int, n: int) -> Poly1D:
    """P_{n,p} from the Jacobi Rodrigues formula at alpha = beta = (p-3)/2, scaled to 1 at t = 1."""
    a = Fraction(p - 3, 2)
    poly = jacobi_rodrigues(n, Weight(a, a))
    return (1 / poly(Fraction(1))) * poly


def rodrigues_eval(p: int, n: int, t):
    """P_{n,p}(t) through the derivative construction; exact polynomial inside."""
    p = _check_dim(p)
    if n < 0:
        raise ValueError("degree must be nonnegative")
    poly = _rodrigues_poly(p, n)
    if isinstance(t, np.ndarray):
        return poly(t)
    return float(poly(float(t)))


def ode_residual(p: int, n: int, t):
    """(1-t^2) P'' + (1-p) t P' + n (n+p-2) P at t, from exact derivatives."""
    p = _check_dim(p)
    poly = legendre_coeffs(p, n)
    d1 = poly.deriv()
    d2 = d1.deriv()
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    res = (1 - t * t) * d2(t) + (1 - p) * t * d1(t) + n * (n + p - 2) * poly(t)
    return float(res) if scalar else res


def legendre_norm_sq_exact(p: int, n: int) -> PiRational:
    """Weighted norm of P_{n,p} squared, as an exact pi-power value."""
    p = _check_dim(p)
    return solid_angle_exact(p) / (
        count_harmonic(p, n) * solid_angle_exact(p - 1)
    )


def legendre_norm_sq(p: int, n: int) -> float:
    return float(legendre_norm_sq_exact(p, n))


def dimension_shift(p: int, n: int, j: int) -> Poly1D:
    """P_{n-j, p+2j} obtained by differentiating P_{n,p} j times and scaling.

    The j-th derivative is normalized by its exact value at t=1, which is
    nonzero for every 0 <= j <= n.
    """
    p = _check_dim(p)
    if not 0 <= j <= n:
        raise ValueError("need 0 <= j <= n")
    poly = legendre_coeffs(p, n)
    for _ in range(j):
        poly = poly.deriv()
    at_one = poly(Fraction(1))
    if at_one == 0:
        raise RuntimeError("derivative vanished at t=1; construction is broken")
    return (Fraction(1) / at_one) * poly


def integral_representation_eval(p: int, n: int, t: float) -> float:
    """P_{n,p}(t) as a weighted contour-style average over [-1, 1]."""
    p = _check_dim(p)
    if p < 3:
        raise ValueError("integral representation needs at least three dimensions")
    if n < 0:
        raise ValueError("degree must be nonnegative")
    t = float(t)
    if abs(t) > 1:
        raise ValueError("t must lie in [-1, 1]")
    m = n // 2 + 1
    rule = gauss_rule(Weight(Fraction(p - 4, 2), Fraction(p - 4, 2)), m)
    s = rule.nodes
    integrand = (t + 1j * s * math.sqrt(1.0 - t * t)) ** n
    total = complex(np.sum(rule.weights * integrand))
    val = total * (solid_angle(p - 2) / solid_angle(p - 1))
    if abs(val.imag) > 1e-10:
        raise RuntimeError("imaginary part failed to cancel")
    return val.real


def funk_hecke_coeff(p: int, n: int, f, m: int = 128) -> float:
    """Scalar by which averaging f(<xi, .>) over the sphere acts on degree n.

    Equals Omega_{p-2} times the weighted inner product of f with P_{n,p},
    on an m-node Gauss rule; f not finite at a node raises ValueError.
    """
    return zonal_integral(p, lambda t: legendre_eval(p, n, t) * f(t), m)


def _check_gen_args(p, t, r):
    p = _check_dim(p)
    t, r = float(t), float(r)
    if abs(t) > 1:
        raise ValueError("t must lie in [-1, 1]")
    if abs(r) > 0.9:
        raise ValueError("|r| must be at most 0.9")
    return p, t, r


def generating_function_partial(p: int, t: float, r: float, N: int) -> float:
    """Sum of r^n N(p,n) P_{n,p}(t) for n = 0 .. N inclusive."""
    p, t, r = _check_gen_args(p, t, r)
    if N < 0:
        raise ValueError("N must be nonnegative")
    total = 1.0
    prev, cur = 1.0, t
    rn = r
    for n in range(1, N + 1):
        total += rn * count_harmonic(p, n) * cur
        rn *= r
        prev, cur = cur, ((2 * n + p - 2) * t * cur - n * prev) / (n + p - 2)
    return total


def generating_function_closed(p: int, t: float, r: float) -> float:
    """(1 - r^2) / (1 - 2 r t + r^2)^(p/2)."""
    p, t, r = _check_gen_args(p, t, r)
    return (1.0 - r * r) / (1.0 - 2.0 * r * t + r * r) ** (p / 2.0)
