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
orthonormalizing divides each member by the square root of its entry.  `orthonormalize` forms only
that Gram, from the integers alone; ``coeffs`` is built at its first access and kept by the basis.

Floats do not use ``coeffs``: member (j, h) is h(x') r^(n-j) Q_{n-j}(x_p / r), Q_k orthonormal for
(1 - t^2)^((p-3)/2+j), so `harmonic_chunks` runs Q's recurrence in (x_p, |x|^2) a dimension at a time from
S^0's 1/sqrt(2) and x_1/sqrt(2), and `sphere_transform` sums f on a product rule against the same factors
an axis at a time (Driscoll & Healy, Adv. Appl. Math. 15, 1994: the semi-naive transform).
"""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, partial

import numpy as np

from . import legendre as _legendre
from .geometry import PiRational, _rule_axes, gamma_half, solid_angle
from .orthopoly import RULE_BYTES_LIMIT, _jacobi_alpha_beta
from .polyalg import CHUNK_ELEMENTS, ExactPolynomial, FloatPolynomial, _degree_rows
from .polyalg import count_harmonic, count_homogeneous  # re-exported

__all__ = [
    "HarmonicBasis",
    "count_homogeneous",
    "count_harmonic",
    "harmonic_basis_raw",
    "orthonormalize",
    "legendre_harmonic",
    "addition_theorem_eval",
    "harmonic_chunks",
    "sphere_transform",
]

UNIT_SPHERE_TOL = 1e-12


def _dtype(d: int, norms):
    """float64 if it holds d-term sums of coefficients exactly, else Python ints: a coefficient
    is at most the square root of its Fischer norm, and float64 holds every integer below 2^53."""
    return float if d * d * max(norms, default=1) < 2**106 else object


def _as(matrix: np.ndarray, dtype) -> np.ndarray:
    """The integer matrix in `dtype`: float64 entries go to Python ints through int64, never through float."""
    return matrix.astype(np.int64).astype(object) if dtype is object and matrix.dtype != object else matrix


@lru_cache(maxsize=4096)  # rung s is read by rung s + 1 and by `_members(d + 1, n)` for every n >= j + 2s
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


def _slices(p: int, n: int) -> tuple:
    """Per j with degree-n members in p > 1 variables: j, j0 = (n-j) mod 2, member (j, h)'s profile c_t, t <= K =
    (n-j-j0)/2, as coprime integers, and its norm over h's.  c_t is (-1)^t j0!/(j0+2t)! times the factor R_K/R_(K-t)
    of Lap'^t(|x'|^2K h), R_s = prod_{i<=s} 2i(2i+2j+p-3) the norm of |x'|^2s h over h's (`_ladder`), so c_t
    (j0+2t)! R_(K-t) is +-(n-j)! c_K and the norm, sum_t c_t^2 (j0+2t)! R_(K-t), is (n-j)! |c_K| sum_t |c_t|."""
    fact, out = [math.factorial(k) for k in range(n + 1)], []
    for j in range(n + 1 if p > 2 else min(n, 1) + 1):  # at p = 2 only j <= 1 has members
        j0, half = (n - j) % 2, (n - j) // 2
        ints, factor = [], 1
        for t in range(half + 1):
            ints.append((-1) ** t * fact[j0 + 2 * half] // fact[j0 + 2 * t] * factor)
            factor *= 2 * (half - t) * (2 * (half - t) + 2 * j + p - 3)
        divisor = math.gcd(*ints)
        ints = tuple(c // divisor for c in ints)
        out.append((j, j0, ints, fact[n - j] * abs(ints[-1]) * sum(map(abs, ints))))
    return tuple(out)


@lru_cache(maxsize=4096)
def _beta(a: int, c: int) -> Fraction:
    """int_{-1}^{1} t^a (1 - t^2)^((c - 2)/2) dt for even a, over pi when c is odd, from `gamma_half`'s rationals."""
    return gamma_half(a + 1).coeff * gamma_half(c).coeff / gamma_half(a + 1 + c).coeff


def _member_integrals(p: int, n: int, beta: tuple, memo: dict) -> tuple:
    """The integrals of x^beta times each degree-n member over S^(p-1), in basis order, over Omega_p's power of pi
    (every nonzero one carries it), with no member formed.  As x_p = t, x' = sqrt(1 - t^2) y, dsigma_(p-1) =
    (1 - t^2)^((p-3)/2) dt dsigma_(p-2), (j, h)'s is h's against y^beta' times sum_s c_s B(beta_p + j0 + 2s, 2(K - s)
    + |beta'| + j + p - 1) (`_slices`, `_beta`; B(a + 2, c - 2) = B(a, c) (a + 1)/(c - 2)); S^0 sums over +-1."""
    if (p, n, beta) not in memo:  # `memo` is one caller's, and keeps `_slices` as well
        if p > 1 and (p, n) not in memo:
            memo[p, n] = _slices(p, n)
        out = [2 * (1 - (beta[0] + n) % 2)] * (n < 2) if p == 1 else []
        for j, j0, ints, _ in memo.get((p, n), ()):
            below, a, c = _member_integrals(p - 1, j, beta[:-1], memo), beta[-1] + j0, sum(beta[:-1]) + j + p - 1
            if a % 2 or not any(below):  # an odd integrand in t, or in y
                out += [0] * len(below)
                continue
            b = _beta(a, c + 2 * len(ints) - 2)
            factor = ints[0] * b
            for s, c_s in enumerate(ints[1:]):
                b *= Fraction(a + 2 * s + 1, c + 2 * (len(ints) - s) - 4)
                factor += c_s * b
            out += [factor * v for v in below]
        memo[p, n, beta] = tuple(out)
    return memo[p, n, beta]


@lru_cache(maxsize=4096)  # (p - 1, j) is read by every degree n >= j, and (p, n) again by `_members`
def _norms(p: int, n: int) -> tuple:
    """The degree-n members' Fischer norms in p variables, with no matrix: (j, h)'s is h's times `_slices`' for j."""
    if p == 1:
        return (1,) * (n < 2)
    return tuple(weight * v for j, _, _, weight in _slices(p, n) for v in _norms(p - 1, j))


def _basis_norms(p: int, n: int) -> tuple:
    """`_norms`, after refusing a basis in p > 1 variables whose matrix passes RULE_BYTES_LIMIT at 8 bytes an entry."""
    if 8 * count_harmonic(p, n) * count_homogeneous(p, n) > RULE_BYTES_LIMIT:
        raise ValueError(f"a degree-{n} basis in {p} variables needs more than {RULE_BYTES_LIMIT >> 20} MiB at "
                         "8 bytes per coefficient, a floor: coefficients kept as Python ints take more")
    return _norms(p, n)


def _members(p: int, n: int):
    """The degree-n members in p variables: one integer matrix over the degree-n monomials, and `_norms`.
    At p = 1 they are 1 and x_1; member (j, h) is sum_t c_t x_p^(j0+2t) |x'|^2(K-t) h (`_slices`)."""
    if p == 1:
        return np.ones((int(n < 2), 1)), _norms(p, n)
    norms = _basis_norms(p, n)  # refuses an oversized basis before any other work
    dtype, top = _dtype(p - 1, norms), 0
    matrix = np.zeros((len(norms), count_homogeneous(p, n)), dtype)
    # the monomials x^beta x_p^e of one e are in the lex order of beta, as a rung's columns are
    powers = _degree_rows(p, n)[:, -1]
    for j, j0, ints, _ in _slices(p, n):
        # in ascending s, so that each rung finds the one below it cached and the recursion stays shallow
        rungs = [_ladder(p - 1, j, s) for s in range(len(ints))][::-1]
        for t, (c, (rung, _)) in enumerate(zip(ints, rungs)):
            matrix[top : top + len(rung), powers == j0 + 2 * t] = c * _as(rung, dtype)
        top += len(rungs[0][0])
    return matrix, norms


def _polynomial(cls, p: int, exponents: np.ndarray, row: np.ndarray):
    """sum_k row[k] x^exponents[k] as a `cls`, from the row's nonzeros alone."""
    support = np.flatnonzero(row)
    return cls(p, dict(zip(map(tuple, exponents[support].tolist()), row[support].tolist())))


def harmonic_basis_raw(p: int, n: int) -> tuple:
    """The degree-n members as integer ExactPolynomials, in basis order (see the module docstring)."""
    count_harmonic(p, n)  # validates p and n
    matrix, _ = _members(p, n)
    rows = matrix if matrix.dtype == object else matrix.astype(np.int64)  # float64 entries are integers below 2^53
    return tuple(map(partial(_polynomial, ExactPolynomial, p, _degree_rows(p, n)), rows))


class _Members(Sequence):
    """A basis's members as FloatPolynomials, each built from its coefficient row on first access and kept."""

    def __init__(self, b: HarmonicBasis):
        self._len = len(b.gram_blocks)
        self._member = lru_cache(maxsize=None)(lambda i: _polynomial(FloatPolynomial, b.p, b.exponents, b.coeffs[i]))

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, i):
        index = range(self._len)[i]  # negative indices, slices and IndexError, as a tuple's
        return tuple(map(self._member, index)) if isinstance(i, slice) else self._member(index)


@dataclass(frozen=True, eq=False)
class HarmonicBasis:
    """Orthonormal degree-n spherical harmonics with their exact ancestry.

    A basis is made holding only its exact Gram: the raw members are orthogonal, and their Gram matrix is the
    PiRational ``gram_scale`` times the diagonal ``gram_blocks``, each member's Fischer norm sum_alpha alpha! c_alpha^2.
    Member i is sum_k coeffs[i, k] x^exponents[k], over all K degree-n monomials in lex order (`_degree_rows`); the
    read-only (N, K) ``coeffs`` is built at its first access, a member's first access included, and kept.
    ``members`` builds member i as a FloatPolynomial on demand from its row's nonzeros; ``len(members)`` and
    ``evaluate_members`` build no matrix.
    """

    p: int
    n: int
    gram_scale: PiRational
    gram_blocks: tuple

    exponents = property(lambda self: _degree_rows(self.p, self.n))

    @cached_property
    def coeffs(self) -> np.ndarray:
        """Raw member i over sqrt(gram_scale N_i), formed without converting the integer N_i to float."""
        scale = self.gram_scale
        roots = [_sqrt_pi(scale.coeff.numerator * v, scale.coeff.denominator, scale.pi_half) for v in self.gram_blocks]
        coeffs = _members(self.p, self.n)[0].astype(float, copy=False)  # Python ints are correctly rounded too
        coeffs /= np.array(roots)[:, None]
        coeffs.flags.writeable = False  # shared by every member and reader of the basis
        return coeffs

    @cached_property
    def members(self) -> Sequence:
        """The members as FloatPolynomials, each built on first access (see above)."""
        return _Members(self)

    def evaluate_members(self, points) -> np.ndarray:
        """Member values at (m, p) points (or one (p,) point) as an (m, N) array, by `harmonic_chunks`."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.empty((pts.shape[0], count_harmonic(self.p, self.n)))
        for rows, values in harmonic_chunks(pts, self.p, self.n, self.n):
            out[rows] = values.T
        return out


def _profiles(x: np.ndarray, r2, steps: np.ndarray, x1) -> np.ndarray:
    """F[k, j, level, i] at rows x (level, i) of x_q and r^2 = r2, for j <= n_max - k; the rest is 0.  As
    the recurrence is linear, level 2's j = 1 column starts from F_0 = x_1, so that it holds x_1 F_k."""
    n_max = len(steps) - 1
    table = np.zeros((n_max + 2,) + steps.shape[1:-1] + x.shape[-1:])  # F_{-1} = 0, then F_0 .. F_n_max
    table[1], x2, steps = 1.0, 2.0 * x, steps * r2
    table[1, 1:2, 0] = x1
    for k in range(n_max):
        top = n_max - k  # degree j + k + 1 <= n_max
        table[k + 2, :top] = x2 * table[k + 1, :top] + steps[k, :top] * table[k, :top]
    return table[1:]


@lru_cache(maxsize=64)  # read again by every `harmonic_chunks` call and by both rules of a callable projection
def _plan(p: int, n_max: int, n_min: int):
    """Per (k, j, level q - 2, 1), -4 beta_k and G_k's scale: with P_k monic for (1 - t^2)^((q-3)/2+j),
    F_k = 2^k r^k P_k(x_q / r) obeys F_{k+1} = 2 x_q F_k - 4 beta_k |x|^2 F_{k-1} (bounded like Chebyshev's
    U_k), and G_k = s_k F_k / (2^k sqrt(beta_0 .. beta_k)) is s_k r^k Q_k(x_q / r), s_k = (-1)^floor(k/2) making
    its x_q^j0 term positive.  Then per level, each member's h and its row in `_profiles`' flat table (degrees
    n_min..n_max at p, all below), and per top member its rows and its scale, with S^0's 1/sqrt(2)."""
    width = 2 if p == 2 else n_max + 1
    steps, scales = np.zeros((2, n_max + 1, width, p - 1, 1))
    signs = np.where(np.arange(n_max + 1) % 4 < 2, 1.0, -1.0)
    gathers, members = [], None
    for q in range(2, p + 1):
        for j in range(min(2, width) if q == 2 else width):
            beta = _jacobi_alpha_beta((q - 3) / 2 + j, (q - 3) / 2 + j, n_max + 1)[1]
            steps[:, j, q - 2, 0] = -4.0 * beta
            scales[:, j, q - 2, 0] = signs / (math.sqrt(beta[0]) * np.cumprod(np.r_[1.0, 2.0 * np.sqrt(beta[1:])]))
        counts = [int(j < 2) if q == 2 else count_harmonic(q - 1, j) for j in range(n_max + 1)]
        starts, src, rows = np.cumsum([0] + counts), [], []
        for n in range(n_min if q == p else 0, n_max + 1):
            for j in range(n + 1):
                src += range(starts[j], starts[j + 1])
                rows += [((n - j) * width + j) * (p - 1) + q - 2] * counts[j]
        gathers.append((np.array(src, dtype=np.intp), np.array(rows, dtype=np.intp)))
        members = gathers[-1][1][None] if q == 2 else np.vstack([members[:, gathers[-1][0]], gathers[-1][1]])
    scale = np.sqrt(0.5) * np.prod(scales.reshape(-1)[members], axis=0)[:, None]
    for array in sum(gathers, (steps, scales, members, scale)):
        array.flags.writeable = False  # cached, so shared by every call
    return steps, scales, tuple(gathers), members, scale


def harmonic_chunks(points, p: int, n_max: int, n_min: int = 0, sums=None):
    """Yield (rows, values) over row chunks of (m, p) `points`: values[c, i] is the c-th orthonormal member of degree
    n_min..n_max, in basis order, at the chunk's i-th point, the product of its rows of one stacked recurrence.  A
    caller that has checked `points` as an (m, p) float array passes np.add.accumulate(points * points, axis=1) as
    `sums`, and nothing is checked or formed again.  Nothing divides by |x|; temporaries stay near CHUNK_ELEMENTS."""
    if sums is None:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if points.ndim != 2 or points.shape[1] != p:
            raise ValueError(f"points of dimension {points.shape[-1]} for harmonics in {p} variables")
    steps, _, _, members, scale = _plan(p, n_max, n_min)
    # per point: the table, its steps times |x|^2 and a step's product, then the rows of each member and their product
    step = max(1, CHUNK_ELEMENTS // ((2 * n_max + 4) * steps[0].size + p * len(scale)))
    for start in range(0, points.shape[0], step):
        chunk, coords = slice(start, start + step), points[start : start + step].T
        r2 = np.add.accumulate(coords * coords, axis=0) if sums is None else sums[chunk].T
        table = _profiles(coords[1:], r2[1:], steps, coords[0])
        yield chunk, table.reshape(-1, coords.shape[1]).take(members, axis=0).prod(axis=0) * scale


@lru_cache(maxsize=4)  # the two rules of a callable projection, for two (p, n_max, degree)
def _transform_tables(p: int, n_max: int, degree: int):
    """`sphere_transform`'s read-only tables on the degree-`degree` product rule, m = (degree + 2) // 2: S^1's members
    at the phi nodes, (2m, 2 n_max + 1), then per t level its columns of the level below and its scaled factors at the
    t nodes, (members, m).  An entry is m (4 n_max + 2 + sum_q sum_{n <= n_max} dim H_{<=n}(R^(q-1))) floats: 36 kB
    at (4, 6, 40), and at most 7.6 MB, at (5, 23, 48), at the default degree of any n_max in `bvp.MONOMIAL_BUDGET`."""
    axes = [nodes for nodes, _ in _rule_axes(p, degree)]
    phi, levels = axes[-1], ()
    circle = np.hstack([v for _, v in harmonic_chunks(np.column_stack([np.cos(phi), np.sin(phi)]), 2, n_max)]).T
    if p > 2:
        t = np.array([np.zeros(len(axes[0]))] + axes[-2::-1])  # level 2's row is unused
        steps, scales, gathers, _, _ = _plan(p, n_max, 0)
        powers = np.sqrt(1.0 - t * t) ** np.arange(steps.shape[1])[:, None, None]
        factors = (_profiles(t, 1.0, steps, 0.0) * scales * powers).reshape(-1, t.shape[1])
        levels = tuple((src, factors[rows]) for src, rows in gathers[1:])
    for array in (circle,) + tuple(f for _, f in levels):
        array.flags.writeable = False  # cached, so shared by every projection
    return circle, levels


def sphere_transform(values: np.ndarray, p: int, n_max: int, degree: int) -> np.ndarray:
    """sum w f Y for each member Y of degree <= n_max, in basis order, from `values`, w f at the nodes of
    `geometry.sphere_quadrature(p, degree)`: phi against S^1's members, then each t against the factors (1 - t^2)^(j/2)
    G_k(t), as x' = sqrt(1 - t^2) y.  No basis is formed; the tables are built once per (p, n_max, degree) and kept."""
    circle, levels = _transform_tables(p, n_max, degree)
    coeffs = values.reshape((len(circle) // 2,) * (p - 2) + (len(circle),)) @ circle
    for src, factors in levels:
        coeffs = np.einsum("ct,...tc->...c", factors, coeffs[..., src])
    return coeffs


def _gram_scale(p: int, n: int) -> PiRational:
    """Each degree-2n monomial integral over S^{p-1} is this times an integer; its pi power is Omega_p's."""
    return PiRational(Fraction(2, 2**n), p) / gamma_half(2 * n + p)


def _sqrt_pi(num: int, den: int, pi_half: int) -> float:
    """sqrt(num / den pi^(pi_half / 2)) for integers num >= 0, den > 0 of any size, neither made a float:
    sqrt(q) = 2^e sqrt(q / 4^e) with q / 4^e in [1/4, 4), and int / int is correctly rounded."""
    e = (num.bit_length() - den.bit_length()) // 2
    q = num / (den << 2 * e) if e >= 0 else (num << -2 * e) / den
    return math.ldexp(math.sqrt(math.pi ** (pi_half / 2) * q), e)


def orthonormalize(p: int, n: int) -> HarmonicBasis:
    """Orthonormal basis of degree-n spherical harmonics on S^{p-1}.

    Member i is raw member i over the square root of its exact Gram entry gram_scale N_i.  Only that Gram is formed
    here (`_norms`, no matrix).  At p = 2 the raw members' integers are binomials C(n, k) over their gcd, at most
    C(n, n // 2 - (n % 4 == 2)); past a double, which `coeffs` needs, the basis is refused before the slow `_norms`.
    """
    if p == 2 and n >= 0 and math.comb(n, n // 2 - (n % 4 == 2)) > sys.float_info.max:
        raise ValueError(f"a degree-{n} basis in 2 variables has integer coefficients past a double")
    norms = _basis_norms(p, n)  # validates p and n, and refuses an oversized basis before any other work
    return HarmonicBasis(p, n, _gram_scale(p, n), norms)


def legendre_harmonic(p: int, n: int) -> ExactPolynomial:
    """The unique harmonic homogeneous H with H(e_1) = 1, symmetric about e_1.

    Homogenizes the exact degree-n Legendre coefficients: a_k t^k becomes
    a_k x_1^k |x|^(n-k), and parity guarantees n-k is even throughout.
    """
    count_harmonic(p, n)  # validates p and n
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
        if not abs(np.linalg.norm(v) - 1.0) <= UNIT_SPHERE_TOL:  # NaN fails
            raise ValueError("points must lie on the unit sphere")
    vals = basis.evaluate_members(np.vstack([xi, eta]))
    scale = solid_angle(basis.p) / count_harmonic(basis.p, basis.n)
    return scale * float(np.dot(vals[0], vals[1]))
