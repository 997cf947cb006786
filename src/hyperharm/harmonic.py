"""Harmonic homogeneous polynomials and orthonormal sphere bases.

The degree-n basis is the Gelfand-Tsetlin basis (Vilenkin, Special Functions and the Theory of
Group Representations, 1968): for j = 0..n and each member h of the degree-j basis in
x' = (x_1..x_{p-1}) (for p - 1 = 1, 1 and x_1), the member h(x') r^(n-j) P_{n-j,p+2j}(x_p / r), in
ascending j and then the order of h, so member 0 is the zonal harmonic about e_p.  It is built in
integers as sum_t c_t x_p^(j0+2t) |x'|^2(K-t) h, j0 = (n-j) mod 2, K = (n-j-j0)/2, the profile c_t
from the slice recursion in x_p.  The members are orthogonal under the Fischer product [f, g] =
sum_alpha alpha! f_alpha g_alpha, which for harmonic f, g of degree n is the sphere integral of fg
over one pi-power scale (Axler, Bourdon & Ramey, GTM 137, ch. 5), and a member's Fischer norm is
its h's times one integer per (p, n, j).  So the exact Gram matrix is that scale times a diagonal
of integers, which a basis keeps as ``gram_scale`` and ``gram_blocks`` and nowhere else, and
orthonormalizing divides each member by the square root of its entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations

import numpy as np

from . import legendre as _legendre
from .geometry import PiRational, gamma_half, solid_angle
from .polyalg import ExactPolynomial, FloatPolynomial, evaluate_monomials, graded_monomials
from .polyalg import count_harmonic, count_homogeneous  # re-exported

__all__ = [
    "HarmonicBasis",
    "count_homogeneous",
    "count_harmonic",
    "harmonic_basis_raw",
    "orthonormalize",
    "legendre_harmonic",
    "addition_theorem_eval",
]

UNIT_SPHERE_TOL = 1e-12


def _dtype(d: int, norms):
    """float64 if it holds d-term sums of coefficients exactly, else Python ints: a coefficient
    is at most the square root of its Fischer norm, and float64 holds every integer below 2^53."""
    return float if d * d * max(norms, default=1) < 2**106 else object


def _as(matrix: np.ndarray, dtype) -> np.ndarray:
    """The integer matrix in `dtype`: float64 entries go to Python ints through int64, never through float."""
    return matrix.astype(np.int64).astype(object) if dtype is object and matrix.dtype != object else matrix


def _degree_rows(d: int, m: int) -> np.ndarray:
    """Degree-m exponents in d variables, ascending lex: gaps between d - 1 bars in m + d - 1 places."""
    bars = np.array(list(combinations(range(m + d - 1), d - 1)), dtype=np.int64)
    return np.diff(bars, axis=1, prepend=-1, append=m + d - 1) - 1


@lru_cache(maxsize=4096)
def _ladder(d: int, j: int, s: int):
    """|x|^2s times the degree-j members in d variables: matrix over the degree-(j + 2s) monomials, norms.

    A rung is d shifted adds of the one below.  As [x_i f, g] = [f, d_i g], |x|^2 multiplies the norm of
    |x|^(2s-2) h by 2s(2s + 2j + d - 2), the factor of Lap(|x|^2s h) = 2s(2s + 2j + d - 2) |x|^(2s-2) h.
    """
    if s == 0:
        return _members(d, j)
    below, norms = _ladder(d, j, s - 1)
    norms = tuple(v * 2 * s * (2 * s + 2 * j + d - 2) for v in norms)
    dtype = _dtype(d, norms)
    rung, below = np.zeros((len(norms), count_homogeneous(d, j + 2 * s)), dtype), _as(below, dtype)
    # x_i^2 maps the monomials below, in order, onto those with exponent >= 2 at i
    for exponents in _degree_rows(d, j + 2 * s).T:
        rung[:, exponents >= 2] += below
    return rung, norms


def _members(p: int, n: int):
    """The degree-n members in p variables: one integer matrix over the degree-n monomials, and Fischer norms.

    At p = 1 they are 1 and x_1.  Member (j, h)'s profile is c_t = (-1)^t j0!/(j0+2t)! times the factor
    prod_{K-t < i <= K} 2i(2i+2j+p-3) of Lap'^t(|x'|^2K h), as coprime integers; its norm is sum_t c_t^2
    (j0+2t)! times its rung's."""
    if p == 1:
        return np.ones((int(n < 2), 1)), (1,) * (n < 2)
    blocks, norms, fact = [], [], [math.factorial(k) for k in range(n + 1)]
    for j in range(n + 1 if p > 2 else min(n, 1) + 1):  # at p = 2 only j <= 1 has members
        j0, half = (n - j) % 2, (n - j) // 2
        ints, factor = [], 1
        for t in range(half + 1):
            ints.append((-1) ** t * fact[j0 + 2 * half] // fact[j0 + 2 * t] * factor)
            factor *= 2 * (half - t) * (2 * (half - t) + 2 * j + p - 3)
        divisor = math.gcd(*ints)
        ints = [c // divisor for c in ints]
        # in ascending s, so that each rung finds the one below it cached and the recursion stays shallow
        rungs = [_ladder(p - 1, j, s) for s in range(half + 1)][::-1]
        weights = [c * c * fact[j0 + 2 * t] for t, c in enumerate(ints)]
        norms += [sum(w * v for w, v in zip(weights, column)) for column in zip(*(rung[1] for rung in rungs))]
        blocks.append((j0, ints, rungs))
    dtype = _dtype(p - 1, norms)
    matrix = np.zeros((len(norms), count_homogeneous(p, n)), dtype)
    # the monomials x^beta x_p^e of one e are in the lex order of beta, as a rung's columns are
    powers = _degree_rows(p, n)[:, -1]
    top = 0
    for j0, ints, rungs in blocks:
        for t, (c, (rung, _)) in enumerate(zip(ints, rungs)):
            matrix[top : top + len(rung), powers == j0 + 2 * t] = c * _as(rung, dtype)
        top += len(rungs[0][0])
    return matrix, tuple(norms)


@lru_cache(maxsize=32)
def harmonic_basis_raw(p: int, n: int) -> tuple:
    """The degree-n members as integer ExactPolynomials, in basis order (see the module docstring)."""
    count_harmonic(p, n)  # validates p and n
    matrix, _ = _members(p, n)
    monos = list(map(tuple, _degree_rows(p, n).tolist()))
    rows = _as(matrix, object).tolist()
    return tuple(ExactPolynomial(p, {a: c for a, c in zip(monos, row) if c}) for row in rows)


@dataclass(frozen=True, eq=False)
class HarmonicBasis:
    """Orthonormal degree-n spherical harmonics with their exact ancestry.

    Member i is sum_k coeffs[i, k] x^exponents[k]: one read-only (N, K)
    float matrix over all K degree-n monomials in ascending lex order (the
    degree-n rows of ``graded_monomials``), shared by all N members.
    The raw members are orthogonal: their exact Gram matrix is the
    PiRational ``gram_scale`` times the diagonal ``gram_blocks``, one
    positive integer per member, its Fischer norm sum_alpha alpha! c_alpha^2;
    every off-diagonal entry is exactly 0.
    """

    p: int
    n: int
    exponents: np.ndarray
    coeffs: np.ndarray
    gram_scale: PiRational
    gram_blocks: tuple

    @cached_property
    def members(self) -> tuple:
        """One FloatPolynomial per member, from the matrix's nonzero entries."""
        monos = [tuple(int(a) for a in alpha) for alpha in self.exponents]
        return tuple(
            FloatPolynomial(self.p, {alpha: c for alpha, c in zip(monos, row) if c})
            for row in self.coeffs
        )

    def evaluate_members(self, points) -> np.ndarray:
        """Member values at (m, p) points (or one (p,) point) as an (m, N) array."""
        return evaluate_monomials(points, self.exponents, self.coeffs)


@lru_cache(maxsize=32)
def orthonormalize(p: int, n: int) -> HarmonicBasis:
    """Orthonormal basis of degree-n spherical harmonics on S^{p-1}.

    Member i is raw member i over the square root of its exact Gram entry
    gram_scale N_i, formed without converting the integer N_i to float.
    """
    count_harmonic(p, n)  # validates p and n
    # each degree-2n monomial integral over the sphere is this times an integer
    scale = PiRational(Fraction(2, 2**n), p) / gamma_half(2 * n + p)
    coeffs, norms = _members(p, n)
    roots = []
    for norm in norms:
        # sqrt(q) = 2^e sqrt(q / 4^e) with q / 4^e in [1/4, 4); int / int is correctly rounded
        num, den = scale.coeff.numerator * norm, scale.coeff.denominator
        e = (num.bit_length() - den.bit_length()) // 2
        q = num / (den << 2 * e) if e >= 0 else (num << -2 * e) / den
        roots.append(math.ldexp(math.sqrt(math.pi ** (scale.pi_half / 2) * q), e))
    # Python ints are correctly rounded too; float64 entries stay in place
    coeffs = coeffs.astype(float, copy=False)
    coeffs /= np.array(roots)[:, None]
    # the basis is cached and shared by every caller
    coeffs.flags.writeable = False
    exponents = graded_monomials(p, n)[0][-count_homogeneous(p, n) :]
    return HarmonicBasis(p, n, exponents, coeffs, scale, norms)


def legendre_harmonic(p: int, n: int) -> ExactPolynomial:
    """The unique harmonic homogeneous H with H(e_1) = 1, symmetric about e_1.

    Homogenizes the exact degree-n Legendre coefficients: a_k t^k becomes
    a_k x_1^k |x|^(n-k), and parity guarantees n-k is even throughout.
    """
    if p < 2:
        raise ValueError("dimension must be at least 2")
    if n < 0:
        raise ValueError("degree must be nonnegative")
    coeffs = _legendre.legendre_coeffs(p, n).coeffs
    radius_sq = ExactPolynomial(
        p, {tuple(2 if i == j else 0 for i in range(p)): Fraction(1) for j in range(p)}
    )
    total = ExactPolynomial.zero(p)
    for k, a in enumerate(coeffs):
        if not a:
            continue
        if (n - k) % 2:
            raise RuntimeError("parity violation in the coefficient table")
        term = ExactPolynomial.monomial(p, (k,) + (0,) * (p - 1), a)
        total = total + term * radius_sq ** ((n - k) // 2)
    return total


def addition_theorem_eval(basis: HarmonicBasis, xi, eta) -> float:
    """(Omega_{p-1} / N(p,n)) times the paired sum of basis values at xi and eta."""
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    for v in (xi, eta):
        if v.shape != (basis.p,):
            raise ValueError("points must have the basis dimension")
        if abs(np.linalg.norm(v) - 1.0) > UNIT_SPHERE_TOL:
            raise ValueError("points must lie on the unit sphere")
    vals = basis.evaluate_members(np.vstack([xi, eta]))
    scale = solid_angle(basis.p) / count_harmonic(basis.p, basis.n)
    return scale * float(np.dot(vals[0], vals[1]))
