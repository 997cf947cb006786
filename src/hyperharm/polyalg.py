"""Multivariate polynomials: one sparse core, exact or float coefficients.

:class:`ExactPolynomial` (Fraction coefficients) decides the Laplacian, the
Euler operator, and homogeneity and harmonicity exactly instead of within
a floating tolerance.  :class:`FloatPolynomial` shares the core's ring,
Laplacian and evaluation code with float coefficients.  Rotation is the
one deliberately inexact operation: orthogonal matrices generally have
irrational entries, so rotated polynomials are always FloatPolynomials.

:func:`evaluate_monomials` evaluates float coefficients over a monomial
list, a polynomial's terms, each point by itself; the harmonic members have
their own evaluator, `harmonic.harmonic_chunks`.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import accumulate, combinations, repeat

import numpy as np
from numpy.random import default_rng

__all__ = [
    "ExactPolynomial",
    "FloatPolynomial",
    "check_orthogonal",
    "count_harmonic",
    "count_homogeneous",
    "evaluate_monomials",
    "random_orthogonal",
]

ORTHOGONALITY_TOL = 1e-12

# entries per chunk in evaluate_monomials, harmonic.harmonic_chunks, the kernel's node blocks and the
# sphere rule's renormalisation (2 MB of float64), so no temporary grows with the number of points
CHUNK_ELEMENTS = 1 << 18


def count_homogeneous(p: int, n: int) -> int:
    """Dimension of the space of homogeneous degree-n polynomials in p variables."""
    if p < 1:
        raise ValueError("need at least one variable")
    if n < 0:
        raise ValueError("degree must be nonnegative")
    return math.comb(p + n - 1, n)


def count_harmonic(p: int, n: int) -> int:
    """Dimension of the space of harmonic homogeneous degree-n polynomials."""
    if p < 2:
        raise ValueError("dimension must be at least 2")
    if n < 0:
        raise ValueError("degree must be nonnegative")
    if n == 0:
        return 1
    return (2 * n + p - 2) * math.comb(n + p - 3, n - 1) // n


def _as_fraction(value) -> Fraction:
    if isinstance(value, float):
        raise TypeError(
            "float coefficient in an exact polynomial; use FloatPolynomial"
        )
    return Fraction(value)


def check_orthogonal(matrix, tol: float = ORTHOGONALITY_TOL) -> np.ndarray:
    """Validate R^T R = I to `tol` entrywise and return R as a float array."""
    r = np.asarray(matrix, dtype=float)
    if r.ndim != 2 or r.shape[0] != r.shape[1]:
        raise ValueError("rotation matrix must be square")
    residual = float(np.max(np.abs(r.T @ r - np.eye(r.shape[0]))))
    if residual > tol:
        raise ValueError(
            f"matrix is not orthogonal: max |R^T R - I| = {residual:.3e}"
        )
    return r


def random_orthogonal(p: int, seed: int = 0) -> np.ndarray:
    """Seeded random orthogonal matrix (QR of a Gaussian matrix, signs fixed)."""
    rng = default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((p, p)))
    # fix the QR sign ambiguity so the result is a deterministic function of the seed
    q = q * np.sign(np.diag(r))
    return q


def evaluate_monomials(points, exponents, coeffs) -> np.ndarray:
    """sum_k coeffs[k] x^exponents[k] at each row x of `points`: (m,) for
    (m, p) points or a single (p,) point, (K, p) exponents and (K,) coeffs.

    Each row's value is formed from that row alone, so it has the same bits
    in any call: a monomial is the product of its coordinates' powers, each
    taken by repeated multiplication, in coordinate order, and the terms are
    added one by one in term order.  Rows are taken in chunks whose power
    tables and temporaries hold about CHUNK_ELEMENTS entries.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    exps = np.asarray(exponents, dtype=np.int64)
    coeffs = np.asarray(coeffs, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != exps.shape[1]:
        raise ValueError(f"points of dimension {pts.shape[-1]} for monomials in {exps.shape[1]} variables")
    if coeffs.shape != exps.shape[:1]:
        raise ValueError(f"coefficients of shape {coeffs.shape} for {exps.shape[0]} monomials")
    tops = exps.max(axis=0, initial=0).tolist()
    # per term its nonzero (coordinate, power) factors; per point the coordinates, their powers and two temporaries
    terms = [(c, [(i, k) for i, k in enumerate(alpha) if k]) for alpha, c in zip(exps.tolist(), coeffs.tolist())]
    rows = max(1, CHUNK_ELEMENTS // (sum(tops) + pts.shape[1] + 2))
    out = np.zeros(pts.shape[0])
    for a in range(0, pts.shape[0], rows):
        powers = []  # powers[i][k] = x_i^k for k >= 1, each the one before times x_i; the last chunk's dropped
        for x, top in zip(np.ascontiguousarray(pts[a : a + rows].T), tops):
            powers.append([None, *accumulate(repeat(x, top - 1), np.multiply, initial=x)])
        total = out[a : a + rows]
        for c, factors in terms:
            mono = [powers[i][k] for i, k in factors]
            total += c * reduce(np.multiply, mono) if mono else c
    return out


@lru_cache(maxsize=256)  # every `_ladder` rung, `_members` and `HarmonicBasis.exponents` read it
def _degree_rows(d: int, m: int) -> np.ndarray:
    """Degree-m exponents in d variables in ascending lex, cached read-only: gaps of d - 1 bars in m + d - 1 places."""
    bars = np.array(list(combinations(range(m + d - 1), d - 1)), dtype=np.int64)
    rows = np.diff(bars, axis=1, prepend=-1, append=m + d - 1) - 1
    rows.flags.writeable = False
    return rows


def _validated_terms(nvars, terms, coerce):
    if nvars < 1:
        raise ValueError("nvars must be >= 1")
    out = {}
    for alpha, c in terms.items():
        key = tuple(int(a) for a in alpha)
        if len(key) != nvars:
            raise ValueError(f"exponent {key} does not have {nvars} entries")
        if any(a < 0 for a in key):
            raise ValueError(f"negative exponent in {key}")
        c = coerce(c)
        if c:
            out[key] = out.get(key, coerce(0)) + c
            if not out[key]:
                del out[key]
    # deterministic term order for evaluation, printing and serialization
    return {k: out[k] for k in sorted(out)}


def _format_terms(terms, fmt) -> str:
    if not terms:
        return "0"
    parts = []
    for a, c in terms.items():
        monos = "*".join(
            f"x{i + 1}" if ai == 1 else f"x{i + 1}^{ai}"
            for i, ai in enumerate(a)
            if ai
        )
        if not monos:
            parts.append(fmt(c))
        elif c == 1:
            parts.append(monos)
        elif c == -1:
            parts.append(f"-{monos}")
        else:
            parts.append(f"{fmt(c)}*{monos}")
    out = parts[0]
    for part in parts[1:]:
        out += f" - {part[1:]}" if part.startswith("-") else f" + {part}"
    return out


class _Polynomial:
    """Sparse multivariate polynomial; subclasses fix the coefficient kind.

    Terms map exponent multi-indices (tuples of length `nvars`) to nonzero
    coefficients, each passed through the subclass's `_coerce`; `_scalar`
    converts the scalars that `constant`, `+` and `-` accept.  Results of
    operations have the type of the left operand.  Instances are treated
    as immutable.
    """

    __slots__ = ("nvars", "terms", "_float_cache")

    def __init__(self, nvars: int, terms=None):
        object.__setattr__(self, "nvars", int(nvars))
        object.__setattr__(
            self, "terms", _validated_terms(self.nvars, terms or {}, self._coerce)
        )
        object.__setattr__(self, "_float_cache", None)

    # -- constructors ------------------------------------------------
    @classmethod
    def zero(cls, nvars: int):
        return cls(nvars, {})

    @classmethod
    def constant(cls, nvars: int, c):
        return cls(nvars, {(0,) * nvars: cls._scalar(c)})

    # -- ring operations ----------------------------------------------
    def _check_same_space(self, other):
        if self.nvars != other.nvars:
            raise ValueError("polynomials live in different variable counts")

    def __add__(self, other):
        if isinstance(other, _Polynomial):
            self._check_same_space(other)
            zero = self._coerce(0)
            terms = dict(self.terms)
            for a, c in other.terms.items():
                terms[a] = terms.get(a, zero) + c
            return type(self)(self.nvars, terms)
        return self + self.constant(self.nvars, other)

    __radd__ = __add__

    def __neg__(self):
        return type(self)(self.nvars, {a: -c for a, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other if isinstance(other, _Polynomial) else -self._scalar(other))

    def __mul__(self, other):
        if isinstance(other, _Polynomial):
            self._check_same_space(other)
            zero = self._coerce(0)
            terms: dict = {}
            for a, ca in self.terms.items():
                for b, cb in other.terms.items():
                    key = tuple(x + y for x, y in zip(a, b))
                    terms[key] = terms.get(key, zero) + ca * cb
            return type(self)(self.nvars, terms)
        c = self._coerce(other)
        return type(self)(self.nvars, {a: v * c for a, v in self.terms.items()})

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        out = self.constant(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def __eq__(self, other):
        return (
            isinstance(other, type(self))
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.nvars, tuple(self.terms.items())))

    # -- queries --------------------------------------------------------
    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(a) for a in self.terms), default=-1)

    def max_abs_coeff(self):
        return max((abs(c) for c in self.terms.values()), default=self._coerce(0))

    # -- calculus --------------------------------------------------------
    def laplacian(self):
        zero = self._coerce(0)
        terms: dict = {}
        for a, c in self.terms.items():
            for i, ai in enumerate(a):
                if ai >= 2:
                    key = a[:i] + (ai - 2,) + a[i + 1 :]
                    terms[key] = terms.get(key, zero) + c * ai * (ai - 1)
        return type(self)(self.nvars, terms)

    # -- evaluation ------------------------------------------------------
    def evaluate(self, x):
        """Evaluate at one point in the arithmetic of the coefficients and x."""
        if len(x) != self.nvars:
            raise ValueError("point dimension does not match nvars")
        total = 0
        for a, c in self.terms.items():
            v = c
            for xi, ai in zip(x, a):
                if ai:
                    v = v * xi**ai
            total = total + v
        return total

    def _float_arrays(self):
        cache = self._float_cache
        if cache is None:
            exps = np.array(sorted(self.terms), dtype=np.int64).reshape(
                len(self.terms), self.nvars
            )
            coeffs = np.array([float(self.terms[tuple(e)]) for e in exps])
            cache = (exps, coeffs)
            object.__setattr__(self, "_float_cache", cache)
        return cache

    def evaluate_array(self, points) -> np.ndarray:
        """Vectorized float evaluation at an (m, nvars) array of points, each row's value its own."""
        return evaluate_monomials(points, *self._float_arrays())

    # -- rotations ---------------------------------------------------
    def rotate(self, matrix) -> "FloatPolynomial":
        """Substitute x -> Rx; returns a float-coefficient polynomial."""
        r = check_orthogonal(matrix)
        n = self.nvars
        if r.shape[0] != n:
            raise ValueError("rotation matrix dimension does not match nvars")
        # linear forms (Rx)_i = sum_j R[i, j] x_j, with power tables built on demand
        forms = [
            FloatPolynomial(
                n, {tuple(int(m == j) for m in range(n)): r[i, j] for j in range(n)}
            )
            for i in range(n)
        ]
        powers = [[FloatPolynomial.constant(n, 1)] for _ in range(n)]
        out = FloatPolynomial.zero(n)
        for alpha, c in self.terms.items():
            term = FloatPolynomial.constant(n, c)
            for i, ai in enumerate(alpha):
                while len(powers[i]) <= ai:
                    powers[i].append(powers[i][-1] * forms[i])
                if ai:
                    term = term * powers[i][ai]
            out = out + term
        return out

    def __str__(self):
        return _format_terms(self.terms, self._format)

    def __repr__(self):
        return f"{type(self).__name__}({self.nvars}, {self})"


class ExactPolynomial(_Polynomial):
    """Polynomial with Fraction coefficients; float coefficients are rejected."""

    __slots__ = ()
    _coerce = staticmethod(_as_fraction)
    _scalar = Fraction
    _format = str

    @classmethod
    def monomial(cls, nvars: int, alpha, c=1) -> "ExactPolynomial":
        return cls(nvars, {tuple(alpha): Fraction(c)})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "ExactPolynomial":
        alpha = [0] * nvars
        alpha[i] = 1
        return cls(nvars, {tuple(alpha): Fraction(1)})

    # -- queries --------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def is_homogeneous(self):
        """The common total degree of all terms, or None; zero polynomial -> 0."""
        degs = {sum(a) for a in self.terms}
        if not degs:
            return 0
        if len(degs) == 1:
            return degs.pop()
        return None

    def is_harmonic(self) -> bool:
        return self.laplacian().is_zero()

    # -- calculus --------------------------------------------------------
    def partial(self, i: int) -> "ExactPolynomial":
        terms = {}
        for a, c in self.terms.items():
            if a[i]:
                key = a[:i] + (a[i] - 1,) + a[i + 1 :]
                terms[key] = terms.get(key, Fraction(0)) + c * a[i]
        return ExactPolynomial(self.nvars, terms)

    def euler_apply(self) -> "ExactPolynomial":
        """Apply sum_i x_i d/dx_i; equals n*q exactly for homogeneous q of degree n."""
        return ExactPolynomial(
            self.nvars, {a: c * sum(a) for a, c in self.terms.items()}
        )

    # -- conversion and io ------------------------------------------
    def to_float(self) -> "FloatPolynomial":
        return FloatPolynomial(
            self.nvars, {a: float(c) for a, c in self.terms.items()}
        )

    def to_json_dict(self) -> dict:
        return {
            "nvars": self.nvars,
            "terms": [
                {"alpha": list(a), "num": c.numerator, "den": c.denominator}
                for a, c in self.terms.items()
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ExactPolynomial":
        if not isinstance(data, dict):
            raise ValueError("a polynomial must be a JSON object")
        nvars = data.get("nvars")
        if type(nvars) is not int or nvars < 1:
            raise ValueError("nvars must be an integer of at least 1")
        if not isinstance(data.get("terms"), list):
            raise ValueError("terms must be a list of term objects")
        terms = {}
        for i, t in enumerate(data["terms"]):
            if not isinstance(t, dict):
                raise ValueError(f"term {i} must be an object")
            alpha, num, den = t.get("alpha"), t.get("num"), t.get("den")
            if not isinstance(alpha, (list, tuple)) or not all(type(a) is int for a in alpha):
                raise ValueError(f"term {i}: alpha must be a list of integers")
            if not (type(num) is int and type(den) is int):
                raise ValueError(f"term {i}: num and den must be integers")
            if den == 0:
                raise ValueError(f"term {i} has denominator 0")
            if tuple(alpha) in terms:
                raise ValueError(f"term {i} repeats alpha {alpha}")
            terms[tuple(alpha)] = Fraction(num, den)
        return cls(nvars, terms)

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json(cls, text: str) -> "ExactPolynomial":
        return cls.from_json_dict(json.loads(text))


class FloatPolynomial(_Polynomial):
    """Polynomial with float coefficients, in the same term layout."""

    __slots__ = ()
    _coerce = _scalar = float

    @staticmethod
    def _format(c) -> str:
        return format(c, ".17g")

    def evaluate(self, x) -> float:
        return float(super().evaluate([float(xi) for xi in x]))
