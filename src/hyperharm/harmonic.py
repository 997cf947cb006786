"""Harmonic homogeneous polynomials and orthonormal sphere bases.

The degree-n basis is built from the observation that a harmonic
homogeneous polynomial is determined by its two lowest slices in the last
coordinate: seeds run over monomials in the first p-1 variables and each
member is a closed form in its seed, one integer row over one factorial.
Gram matrices on the sphere are exact: integer parity-class blocks
B diag(alpha!) B^T under one pi-power scale per degree (the Fischer inner
product of harmonic members), computed in int64 modulo primes below 2^26
that cover the Cauchy-Schwarz bound max_a s_aa and lifted by the Chinese
remainder theorem.  Each block is nonsingular since each member's seed
occurs in no other member.  Only the final orthonormalization happens in
floating point.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product

import numpy as np

from . import legendre as _legendre
from .geometry import PiRational, gamma_half, solid_angle
from .polyalg import ExactPolynomial, FloatPolynomial, evaluate_monomials, graded_monomials

__all__ = [
    "HarmonicBasis",
    "count_homogeneous",
    "count_harmonic",
    "harmonic_basis_raw",
    "orthonormalize",
    "legendre_harmonic",
    "addition_theorem_eval",
    "exact_rank",
]

UNIT_SPHERE_TOL = 1e-12


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


def _raw_rows(p: int, n: int):
    """Raw degree-n members in basis order: (parity class, integer terms, denominator).

    A seed alpha of degree n - j0 in x_1..x_{p-1}, j0 in {0, 1}, gives the
    member sum_k (-1)^k j0!/(j0+2k)! x_p^(j0+2k) L^k x^alpha with L the
    Laplacian in x_1..x_{p-1}: L^k x^alpha is sum_{|beta|=k} (k!/beta!)
    prod_i alpha_i!/(alpha_i-2beta_i)! x^(alpha-2beta).  Its parity class is
    (alpha mod 2) + (j0,), and its terms share the denominator (j0+2K)!/j0!
    with K = |alpha| // 2.
    """
    dim = count_harmonic(p, n)  # validates p and n before any seed is enumerated
    exps, offsets, _ = graded_monomials(p - 1, n)
    seeds = [(n - d, tuple(a)) for d in (n, n - 1)[: n + 1] for a in exps[offsets[d] : offsets[d + 1]].tolist()]
    if len(seeds) != dim:
        raise RuntimeError("seed enumeration does not match the dimension count")
    for j0, alpha in seeds:
        half, top = (n - j0) // 2, n - (n - j0) % 2  # K and j0 + 2K
        terms = {}
        for beta in product(*(range(a // 2 + 1) for a in alpha)):
            k = sum(beta)
            c = math.perm(top, 2 * (half - k)) * math.factorial(k) // math.prod(map(math.factorial, beta))
            c *= math.prod(math.perm(a, 2 * b) for a, b in zip(alpha, beta))
            terms[tuple(a - 2 * b for a, b in zip(alpha, beta)) + (j0 + 2 * k,)] = (-1) ** k * c
        yield tuple(a % 2 for a in alpha) + (j0,), terms, math.perm(top, 2 * half)


@lru_cache(maxsize=32)
def harmonic_basis_raw(p: int, n: int) -> tuple:
    """Exactly harmonic, linearly independent spanning set of degree n."""
    rows = _raw_rows(p, n)
    return tuple(ExactPolynomial(p, {a: Fraction(c, d) for a, c in t.items()}) for _, t, d in rows)


# Gram blocks are computed in int64 modulo primes q < 2^26: a product of two
# residues is below 2^52, so a sum of fewer than 2^11 of them stays below 2^63.
_SLICE = 2**11 - 1


def _mod_matmul(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """a @ b mod q for (stacks of) int64 residues below q, summed over slices of _SLICE terms."""
    out = 0
    for k in range(0, a.shape[-1], _SLICE):
        out = (out + a[..., k : k + _SLICE] @ b[..., k : k + _SLICE, :]) % q
    return out


def _gram_blocks(p: int, n: int):
    """Exact Gram matrix of the raw members under the sphere inner product, by parity-class block.

    For harmonic homogeneous P, Q of degree n the sphere integral of PQ is
    2 pi^(p/2) / (2^n Gamma(n + p/2)) times the Fischer product sum_alpha
    alpha! P_alpha Q_alpha (members of different parity classes are exactly
    orthogonal), so each class's block is the integer s = B diag(alpha!) B^T.
    |s_ab| <= max_a s_aa by Cauchy-Schwarz, so s is taken in int64 modulo
    primes whose product exceeds twice that, one product per block shape and
    prime, and lifted per block by the Chinese remainder theorem.  A member's
    seed, its term of least x_p power, must occur in no other member of its
    class, or RuntimeError: a sufficient, not necessary, proof that s is
    nonsingular, which _raw_rows always meets.  Yields, per class in the
    order of its first member, the member indices, sorted monomials, float
    coefficient rows over them, row denominators d and s: entry (a, b) is
    the scale times s[a][b] / (d[a] d[b]).
    """
    classes: dict = {}
    for idx, (parity, terms, denom) in enumerate(_raw_rows(p, n)):
        classes.setdefault(parity, []).append((idx, terms, denom))
    blocks, shapes = [], {}
    for members in classes.values():
        indices, member_terms, denoms = zip(*members)
        monos = sorted({a for terms in member_terms for a in terms})
        weights = np.array([math.prod(map(math.factorial, a)) for a in monos], dtype=object)
        b = np.array([[terms.get(a, 0) for a in monos] for terms in member_terms], dtype=object)
        # exact integers: a float row entry can underflow to 0 (p = 2, n about 170)
        seeds = [monos.index(min(terms, key=lambda a: a[-1])) for terms in member_terms]
        if not np.array_equal(b[:, seeds] != 0, np.eye(len(seeds), dtype=bool)):
            raise RuntimeError("seeds do not prove the Gram block nonsingular; basis builder is broken")
        shapes.setdefault(b.shape, []).append(len(blocks))
        blocks.append([indices, monos, b, denoms, weights])
    bound = max(max((b * b) @ w) for _, _, b, _, w in blocks)
    primes, modulus, q = [], 1, 2**26 + 1
    while modulus <= 2 * bound:
        q -= 2
        # a base-2 Fermat test skips most composites; trial division up to sqrt(q) decides
        if pow(2, q - 1, q) == 1 and np.all(q % np.arange(3, 2**13, 2)):
            primes.append(q)
            modulus *= q
    crts = [modulus // q * pow(modulus // q, -1, q) for q in primes]  # 1 mod q, 0 mod the others
    for members in shapes.values():
        b, w = (np.stack([blocks[i][k] for i in members]) for k in (2, 4))
        stack = []
        for q in primes:
            bq = (b % q).astype(np.int64)
            stack.append(_mod_matmul(bq * (w % q).astype(np.int64)[:, None, :] % q, bq.swapaxes(1, 2), q))
        for i, *res in zip(members, *stack):
            s = (sum(r.astype(object) * crt for r, crt in zip(res, crts)) % modulus).tolist()
            # the weights are spent: the lifted block takes their place
            blocks[i][4] = tuple(tuple(v - modulus if 2 * v > modulus else v for v in row) for row in s)
    for indices, monos, b, denoms, s in blocks:
        # int / int is correctly rounded: each is float() of its exact coefficient
        rows = (b / np.array(denoms, dtype=object)[:, None]).astype(float)
        yield indices, monos, rows, denoms, s


RANK_PRIME = 2147483647


def _rank_mod_prime(rows, q: int) -> int:
    """Rank over GF(q) of a rational matrix, each row first scaled to integers."""
    lcms = [math.lcm(*(c.denominator for c in row)) for row in rows]
    ints = [[c.numerator * (d // c.denominator) % q for c in row] for row, d in zip(rows, lcms)]
    mat, rank = np.array(ints, dtype=np.int64), 0
    for col in range(mat.shape[1]):
        live = rank + np.nonzero(mat[rank:, col])[0]
        if len(live):
            mat[[rank, live[0]]] = mat[[live[0], rank]]
            # fraction-free: products stay below 2^62 because q < 2^31
            mat[rank + 1 :] = (mat[rank + 1 :] * mat[rank, col] - mat[rank + 1 :, col, None] * mat[rank]) % q
            rank += 1
    return rank


def _rank_exact_fractions(rows) -> int:
    mat, rank = [list(row) for row in rows], 0
    for col in range(len(mat[0])):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot is not None:
            mat[rank], mat[pivot] = mat[pivot], mat[rank]
            for r in range(rank + 1, len(mat)):
                f = mat[r][col] / mat[rank][col]
                mat[r] = [v - f * w for v, w in zip(mat[r], mat[rank])]
            rank += 1
    return rank


def exact_rank(matrix) -> int:
    """Rank of an exact matrix, certified without floating point.

    Entries are ints, Fractions or PiRationals, and every nonzero entry must
    carry the same power of pi (ValueError otherwise), which factors out.
    Reduction mod a prime never raises the rank, so a full rank modulo
    RANK_PRIME certifies full rational rank; only a deficient one falls
    through to exact rational elimination.
    """
    rows = [[getattr(e, "coeff", e) for e in row] for row in matrix]
    if len({getattr(e, "pi_half", 0) for row in matrix for e in row if e != 0}) > 1:
        raise ValueError("exact_rank needs every nonzero entry to carry one pi power")
    if not rows:
        return 0
    modular = _rank_mod_prime(rows, RANK_PRIME)
    if modular == min(len(rows), len(rows[0])):
        return modular
    return _rank_exact_fractions([[Fraction(v) for v in row] for row in rows])


@dataclass(frozen=True, eq=False)
class HarmonicBasis:
    """Orthonormal degree-n spherical harmonics with their exact ancestry.

    Member i is sum_k coeffs[i, k] x^exponents[k]: one read-only (N, K)
    float matrix over all K degree-n monomials in ascending lex order (the
    degree-n rows of ``graded_monomials``), shared by all N members.
    The raw members' exact Gram matrix is the PiRational ``gram_scale`` times
    parity-class blocks (member indices, row denominators d, integer matrix
    s): block entry (a, b) is gram_scale * s[a][b] / (d[a] d[b]).
    """

    p: int
    n: int
    exponents: np.ndarray
    coeffs: np.ndarray
    gram_scale: PiRational
    gram_blocks: tuple

    @property
    def gram_exact(self) -> tuple:
        """Dense exact Gram matrix of the raw members, assembled from the blocks."""
        gram = [[PiRational(Fraction(0))] * len(self.coeffs) for _ in self.coeffs]
        for indices, denoms, block in self.gram_blocks:
            for i, da, row in zip(indices, denoms, block):
                for j, db, v in zip(indices, denoms, row):
                    gram[i][j] = self.gram_scale * Fraction(v, da * db)
        return tuple(tuple(row) for row in gram)

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

    def to_json(self) -> str:
        members = [
            {"terms": [{"alpha": list(a), "coeff": c} for a, c in m.terms.items()]}
            for m in self.members
        ]
        gram = [
            [{"num": e.coeff.numerator, "den": e.coeff.denominator, "pi_half": e.pi_half}
             for e in row]
            for row in self.gram_exact
        ]
        return json.dumps({"p": self.p, "n": self.n, "members": members, "gram": gram})


@lru_cache(maxsize=32)
def orthonormalize(p: int, n: int) -> HarmonicBasis:
    """Orthonormal basis of degree-n spherical harmonics on S^{p-1}.

    Each parity block, nonsingular by its members' seeds, is orthonormalized
    by its float Cholesky factor: member rows L^-1 B are the Gram-Schmidt of
    the block's raw members, taken in index order.  A block too
    ill-conditioned for that factor (at p = 3 from n = 57) raises ValueError.
    """
    blocks = tuple(_gram_blocks(p, n))
    # each degree-2n monomial integral over the sphere is this times an integer
    scale = PiRational(Fraction(2, 2**n), p) / gamma_half(2 * n + p)
    num, den = scale.coeff.numerator, scale.coeff.denominator
    pi_power = math.pi ** (scale.pi_half / 2)
    # every degree-n monomial occurs in some raw member, so the basis runs over them all
    exponents = graded_monomials(p, n)[0][-count_homogeneous(p, n) :]
    column = {a: k for k, a in enumerate(map(tuple, exponents.tolist()))}
    coeffs = np.zeros((count_harmonic(p, n), len(exponents)))
    for indices, class_monos, rows, denoms, s in blocks:
        # int / int is correctly rounded: each entry is float() of its exact entry
        g = pi_power * np.array(
            [[num * v / (den * da * db) for v, db in zip(row, denoms)] for row, da in zip(s, denoms)]
        )
        try:
            chol = np.linalg.cholesky(g)
        except np.linalg.LinAlgError:
            raise ValueError(f"degree {n} is beyond the float orthonormalization at p={p}") from None
        cols = [column[a] for a in class_monos]
        # L^-1 B from the reversed, upper triangular system: its LU needs no row
        # exchanges, which would put rounding noise where L^-1 B is exactly 0
        coeffs[np.ix_(indices, cols)] = np.linalg.solve(chol[::-1, ::-1], rows[::-1])[::-1]
    # the basis is cached and shared by every caller
    coeffs.flags.writeable = False
    return HarmonicBasis(p, n, exponents, coeffs, scale, tuple((i, d, s) for i, _, _, d, s in blocks))


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
