"""Weighted orthogonal-polynomial toolkit on [-1, 1].

Everything is driven by the weight w(x) = (1-x)^alpha (1+x)^beta with
alpha, beta > -1.  Quadrature nodes are always interior, so integrable
endpoint singularities of the weight are never evaluated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .polyalg import _Polynomial

__all__ = [
    "Poly1D",
    "Weight",
    "RecurrenceCoeffs",
    "inner_product",
    "gram_schmidt",
    "recurrence_coeffs",
    "recurrence_residual",
    "jacobi_rodrigues",
    "gauss_rule",
    "bernstein",
    "best_approximation",
    "parseval_report",
]

RULE_BYTES_LIMIT = 1 << 28  # largest build: sphere nodes plus weights, a Gauss eigenproblem, a basis, a table


def _priced(what: str, nbytes: int) -> None:
    """Refuse a build of `nbytes` bytes past RULE_BYTES_LIMIT, before any of it is made."""
    if nbytes > RULE_BYTES_LIMIT:
        raise ValueError(f"{what} needs more than {RULE_BYTES_LIMIT >> 20} MiB")


class Poly1D(_Polynomial):
    """Univariate polynomial: the one-variable case of `polyalg`'s core, with
    its coefficients also ascending in the monomial basis as `coeffs`.

    Coefficients may be exact (int, Fraction) or float; operations keep
    whatever arithmetic the inputs carry.  Trailing zeros are trimmed, so
    the leading coefficient is nonzero unless the polynomial is zero, and
    every zero below it is that coefficient's own zero.
    """

    __slots__ = ("coeffs",)
    _coerce = _scalar = staticmethod(lambda c: c)

    def __init__(self, coeffs=()):
        self._set(1, {(k,): c for k, c in enumerate(coeffs) if c})

    def _set(self, nvars: int, terms: dict):
        super()._set(nvars, terms)
        coeffs = []
        if terms:
            (top,), lead = next(reversed(terms.items()))
            coeffs = [lead * 0] * (top + 1)
            for (k,), c in terms.items():
                coeffs[k] = c
        self.coeffs = tuple(coeffs)
        return self

    @classmethod
    def x_power(cls, k: int) -> "Poly1D":
        return cls((0,) * k + (1,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading(self):
        """Coefficient of x^degree (the k_n bookkeeping value)."""
        return self.coeffs[-1] if self.coeffs else 0

    @property
    def subleading(self):
        """Coefficient of x^(degree-1); 0 when the degree is below 1."""
        return self.coeffs[-2] if len(self.coeffs) >= 2 else 0

    def __call__(self, x):
        if isinstance(x, np.ndarray):
            if not self.coeffs:
                return np.zeros_like(x, dtype=float)
            result = np.full_like(x, float(self.coeffs[-1]), dtype=float)
            for c in reversed(self.coeffs[:-1]):
                result = result * x + float(c)
            return result
        if not self.coeffs:
            return x * 0
        result = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            result = result * x + c
        return result

    def deriv(self) -> "Poly1D":
        return Poly1D(tuple(i * c for i, c in enumerate(self.coeffs) if i))

    def monic(self) -> "Poly1D":
        if not self.coeffs:
            raise ValueError("zero polynomial has no monic form")
        lead = self.coeffs[-1]
        return Poly1D(tuple(c / lead for c in self.coeffs))

    def as_float(self) -> "Poly1D":
        return Poly1D(tuple(float(c) for c in self.coeffs))

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                mono = "x" if i == 1 else f"x^{i}"
                parts.append(mono if c == 1 else f"{c}*{mono}")
        out = parts[0]
        for part in parts[1:]:
            out += f" - {part[1:]}" if part.startswith("-") else f" + {part}"
        return out

    def __repr__(self):
        return f"Poly1D({list(self.coeffs)!r})"


@dataclass(frozen=True)
class Weight:
    """The weight (1-x)^alpha (1+x)^beta on [-1, 1]."""

    alpha: object
    beta: object

    def __post_init__(self):
        if not (self.alpha > -1 and self.beta > -1):
            raise ValueError("weight exponents must both exceed -1")

    def total_mass(self) -> float:
        """Integral of the weight over [-1, 1]."""
        a, b = float(self.alpha), float(self.beta)
        return (
            2.0 ** (a + b + 1)
            * math.gamma(a + 1)
            * math.gamma(b + 1)
            / math.gamma(a + b + 2)
        )


@dataclass(frozen=True)
class RecurrenceCoeffs:
    A: tuple
    B: tuple
    C: tuple


def _jacobi_alpha_beta(a: float, b: float, m: int):
    """Monic three-term recurrence coefficients for the Jacobi weight."""
    alphas = np.empty(m)
    betas = np.empty(m)
    ab = a + b
    alphas[0] = (b - a) / (ab + 2)
    # Gamma overflows past 171; the harmonic recurrences reach a = b = n_max
    betas[0] = (2.0 ** (ab + 1) * math.gamma(a + 1) * math.gamma(b + 1) / math.gamma(ab + 2) if ab < 160 else
                math.exp((ab + 1) * math.log(2.0) + math.lgamma(a + 1) + math.lgamma(b + 1) - math.lgamma(ab + 2)))
    for k in range(1, m):
        tk = 2 * k + ab
        alphas[k] = (b * b - a * a) / (tk * (tk + 2))
        if k == 1:
            # isolated so that ab = -1 (Chebyshev) avoids 0/0 in the general form
            betas[1] = 4 * (1 + a) * (1 + b) / ((ab + 2) ** 2 * (ab + 3))
        else:
            betas[k] = (
                4 * k * (k + a) * (k + b) * (k + ab)
                / (tk * tk * (tk + 1) * (tk - 1))
            )
    return alphas, betas


@lru_cache(maxsize=1024)  # a full verify and the test suite build 957; 2048 nodes take 32 kB
def _gauss_rule_cached(a: float, b: float, m: int):
    alphas, betas = _jacobi_alpha_beta(a, b, m)
    # Golub-Welsch on the dense Jacobi matrix; eigh reads its lower triangle
    nodes, vecs = np.linalg.eigh(np.diag(alphas) + np.diag(np.sqrt(betas[1:]), -1))
    weights = betas[0] * vecs[0, :] ** 2
    if not (np.all(nodes > -1) and np.all(nodes < 1)):
        raise RuntimeError("quadrature nodes escaped the open interval")
    if not np.all(weights > 0):
        raise RuntimeError("nonpositive quadrature weight")
    from .geometry import QuadratureRule

    return QuadratureRule(nodes, weights, exact_degree=2 * m - 1)


def gauss_rule(w: Weight, m: int):
    """Gauss rule with m interior nodes, exact through degree 2m-1 against w.

    Golub-Welsch holds the m x m float64 matrix and its eigenvectors, 16 m^2
    bytes; an m past RULE_BYTES_LIMIT is refused before any array is made.
    """
    if m < 1:
        raise ValueError("a Gauss rule needs at least one node")
    _priced(f"the eigenproblem of a {m}-node Gauss rule", 16 * m * m)
    return _gauss_rule_cached(float(w.alpha), float(w.beta), int(m))


def _values_on(f, nodes: np.ndarray) -> np.ndarray:
    """f at every node (an entry or a row of `nodes`), batched when f allows.

    A TypeError or ValueError from the call on the whole array, or a result
    without one value per node, means f takes one point at a time.
    """
    try:
        vals = np.asarray(f(nodes), dtype=float)
        if vals.shape == (len(nodes),):
            return vals
    except (TypeError, ValueError):
        pass
    return np.array([float(f(t)) for t in nodes])


NONPOLY_RULE_SIZE = 128


def inner_product(f, g, w: Weight) -> float:
    """Weighted L2 inner product; degree-exact Gauss for polynomial inputs."""
    if isinstance(f, Poly1D) and isinstance(g, Poly1D):
        total_deg = max(f.degree, 0) + max(g.degree, 0)
        m = total_deg // 2 + 1
    else:
        m = NONPOLY_RULE_SIZE
    rule = gauss_rule(w, m)
    vals = rule.weights * _values_on(f, rule.nodes) * _values_on(g, rule.nodes)
    return float(np.sum(vals))


def gram_schmidt(w: Weight, n_max: int) -> list:
    """Monic polynomials phi_0..phi_n_max, mutually orthogonal under w."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    phis: list[Poly1D] = []
    norms: list[float] = []
    for n in range(n_max + 1):
        phi = Poly1D.x_power(n).as_float()
        # second pass re-subtracts the projections that the first pass
        # left behind through rounding
        for _ in range(2):
            for k in range(n):
                c = inner_product(phi, phis[k], w) / norms[k]
                phi = phi - c * phis[k]
        phi = Poly1D(phi.coeffs[:n] + (1.0,))
        phis.append(phi)
        norms.append(inner_product(phi, phi, w))
    return phis


def recurrence_coeffs(phis, w: Weight) -> RecurrenceCoeffs:
    """Extract A_n, B_n, C_n from consecutive orthogonal polynomials.

    phi_{n+1} = (A_n x + B_n) phi_n - C_n phi_{n-1}, with C_0 = 0.
    """
    phis = list(phis)
    if len(phis) < 2:
        raise ValueError("need at least two polynomials")
    for n, phi in enumerate(phis):
        if phi.degree != n:
            raise ValueError(f"polynomial {n} has degree {phi.degree}, expected {n}")
    norms = [inner_product(phi, phi, w) for phi in phis]
    for i in range(len(phis)):
        for j in range(i + 1, len(phis)):
            g = inner_product(phis[i], phis[j], w)
            if abs(g) > 1e-8 * math.sqrt(norms[i] * norms[j]):
                raise ValueError(
                    f"input is not orthogonal under the weight: "
                    f"<phi_{i}, phi_{j}> = {g:.3e}"
                )
    A, B, C = [], [], []
    for n in range(len(phis) - 1):
        k_n = float(phis[n].leading)
        k_n1 = float(phis[n + 1].leading)
        l_n = float(phis[n].subleading)
        l_n1 = float(phis[n + 1].subleading)
        a = k_n1 / k_n
        A.append(a)
        B.append(a * (l_n1 / k_n1 - l_n / k_n))
        if n == 0:
            C.append(0.0)
        else:
            C.append((a / A[n - 1]) * (norms[n] / norms[n - 1]))
    return RecurrenceCoeffs(A=tuple(A), B=tuple(B), C=tuple(C))


def recurrence_residual(phis, rc: RecurrenceCoeffs, w: Weight) -> float:
    """Largest weighted norm of phi_{n+1} - (A_n x + B_n) phi_n + C_n phi_{n-1}."""
    phis = [p.as_float() for p in phis]
    x = Poly1D((0.0, 1.0))
    worst = 0.0
    for n in range(len(phis) - 1):
        res = phis[n + 1] - (rc.A[n] * x + rc.B[n]) * phis[n]
        if n > 0:
            res = res + rc.C[n] * phis[n - 1]
        worst = max(worst, math.sqrt(max(inner_product(res, res, w), 0.0)))
    return worst


def _falling(q, j: int):
    out = 1
    for i in range(j):
        out = out * (q - i)
    return out


def jacobi_rodrigues(n: int, w: Weight) -> Poly1D:
    """Degree-n polynomial (1/w) d^n/dx^n [w (1-x^2)^n], expanded in closed form.

    Exact (Fraction coefficients) when alpha and beta are rational.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    a, b = w.alpha, w.beta
    if not isinstance(a, float):
        a = Fraction(a)
    if not isinstance(b, float):
        b = Fraction(b)
    one_minus = Poly1D((1, -1))
    one_plus = Poly1D((1, 1))
    total = Poly1D()
    for k in range(n + 1):
        c = math.comb(n, k) * (-1) ** k * _falling(n + a, k) * _falling(n + b, n - k)
        term = Poly1D((c,))
        for _ in range(n - k):
            term = term * one_minus
        for _ in range(k):
            term = term * one_plus
        total = total + term
    if total.degree != n:
        raise RuntimeError("closed-form expansion lost its leading term")
    return total


def bernstein(f, n: int) -> Poly1D:
    """Bernstein polynomial of f on [0, 1], expanded in the monomial basis.

    f is sampled at the rational points k/n; when it returns exact numbers
    the output coefficients are exact, which matters because the monomial
    expansion cancels catastrophically in floats for large n.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    coeffs = [0] * (n + 1)
    for k in range(n + 1):
        fk = f(Fraction(k, n))
        if not fk:
            continue
        base = fk * math.comb(n, k)
        for j in range(n - k + 1):
            coeffs[k + j] += base * math.comb(n - k, j) * (-1) ** j
    return Poly1D(coeffs)


def best_approximation(f, w: Weight, n: int) -> Poly1D:
    """Weighted least-squares polynomial of degree at most n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    phis = gram_schmidt(w, n)
    out = Poly1D()
    for phi in phis:
        a_k = inner_product(f, phi, w) / inner_product(phi, phi, w)
        out = out + a_k * phi
    return out


def parseval_report(f, w: Weight, n_max: int):
    """Partial sums of squared orthonormal coefficients, and the norm of f.

    Returns (sums, f_norm_sq) where sums[n] = sum_{k<=n} <f, phihat_k>^2.
    The sequence is nondecreasing and bounded by f_norm_sq.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    phis = gram_schmidt(w, n_max)
    sums = []
    running = 0.0
    for phi in phis:
        norm = math.sqrt(inner_product(phi, phi, w))
        running += inner_product(f, (1.0 / norm) * phi, w) ** 2
        sums.append(running)
    return sums, inner_product(f, f, w)
