"""Harmonic homogeneous polynomials and orthonormal sphere bases.

The degree-n basis is built from the observation that a harmonic
homogeneous polynomial is determined by its two lowest slices in the last
coordinate: seeds run over monomials in the first p-1 variables, and a
parity class's members are one integer matrix over one factorial, a product
of per-coordinate factor tables.  Gram matrices on the sphere are exact:
integer parity-class blocks B diag(alpha!) B^T under one pi-power scale per
degree (the Fischer inner product of harmonic members), computed in int64
modulo primes below 2^26 that cover the Cauchy-Schwarz bound max_a s_aa and
lifted by the Chinese remainder theorem.  Each block is nonsingular since
each member's seed occurs in no other member.  Only the final
orthonormalization happens in floating point.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

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


def _class_rows(p: int, n: int):
    """Raw degree-n members as integer matrices, one stack per group of parity classes.

    A seed alpha of degree m = n - j0 in x_1..x_{p-1}, j0 in {0, 1}, gives the
    member sum_k (-1)^k j0!/(j0+2k)! x_p^(j0+2k) L^k x^alpha, L the Laplacian
    in x_1..x_{p-1}.  Its class (pi, j0), pi = alpha mod 2, spans the monomials
    (gamma, j0 + 2k) = (pi + 2 delta, j0 + 2k), in the ascending order of the
    degree-(m - |pi|)/2 rows (delta, k) of graded_monomials(p); times top!/j0!,
    top = j0 + 2 floor(m/2), alpha's entry there is (-1)^k top!/(j0+2k)! k! prod_i
    F[alpha_i, gamma_i], F[a, g] = a!/(g! ((a-g)/2)!) for g <= a of a's parity,
    else 0.  Classes of one j0 and |pi| come as one stack: indices (c, r) in basis
    order, monomials (c, K, p), B (c, r, K) of Python ints and top!/j0!.
    """
    dim = count_harmonic(p, n)  # validates p and n before any seed is enumerated
    fact = [math.factorial(i) for i in range(n + 1)]
    table = np.array([[fact[a] // (fact[g] * fact[(a - g) // 2]) if g <= a and (a - g) % 2 == 0 else 0
                       for g in range(n + 1)] for a in range(n + 1)], dtype=object)
    seeds, offsets, _ = graded_monomials(p - 1, n)
    # in basis order: the seeds of degree n (j0 = 0), then those of degree n - 1 (j0 = 1)
    alphas = np.concatenate((seeds[offsets[n] : offsets[n + 1]], seeds[offsets[n - 1] : offsets[n]]))
    if len(alphas) != dim:
        raise RuntimeError("seed enumeration does not match the dimension count")
    slices, slice_offsets, _ = graded_monomials(p, n // 2)
    classes: dict = {}
    for i, key in enumerate(map(tuple, np.column_stack((alphas % 2, n - alphas.sum(1))).tolist())):
        classes.setdefault(key, []).append(i)
    for j0, weight in sorted({(key[-1], sum(key)) for key in classes}):
        keys = [key for key in classes if (key[-1], sum(key)) == (j0, weight)]
        top = n - (n - j0) % 2
        column = [(-1) ** k * fact[top] // fact[j0 + 2 * k] * fact[k] for k in range(top // 2 + 1)]
        delta = slices[slice_offsets[(n - weight) // 2] : slice_offsets[(n - weight) // 2 + 1]]
        members = np.array([classes[key] for key in keys])
        monos = 2 * delta + np.array(keys)[:, None, :]
        b = np.array(column, dtype=object)[delta[:, -1]]
        for i in range(p - 1):
            b = b * table[alphas[members, i, None], monos[:, None, :, i]]
        yield members, monos, b, fact[top] // fact[j0]


@lru_cache(maxsize=32)
def harmonic_basis_raw(p: int, n: int) -> tuple:
    """Exactly harmonic, linearly independent spanning set of degree n."""
    members = [None] * count_harmonic(p, n)
    for indices, monos, b, den in _class_rows(p, n):
        for idx, class_monos, rows in zip(indices.tolist(), monos.tolist(), b.tolist()):
            for i, row in zip(idx, rows):
                terms = {tuple(a): Fraction(c, den) for a, c in zip(class_monos, row) if c}
                members[i] = ExactPolynomial(p, terms)
    return tuple(members)


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

    For harmonic homogeneous P, Q of degree n the sphere integral of PQ is 2
    pi^(p/2) / (2^n Gamma(n + p/2)) times the Fischer product sum_alpha alpha!
    P_alpha Q_alpha (members of different parity classes are exactly
    orthogonal), so each class's block is the integer s = B diag(alpha!) B^T of
    its _class_rows matrix B.  |s_ab| <= max_a s_aa by Cauchy-Schwarz, so s is
    taken in int64 modulo primes whose product exceeds twice that, one product
    per stack and prime, and lifted by Garner's mixed-radix CRT.  A member's
    seed, its term of least x_p power, must occur in no other member of its
    class, or RuntimeError: a sufficient, not necessary, proof that s is
    nonsingular, which _class_rows always meets.  Yields per stack its indices,
    monomials, float rows B / d, denominator d and s (c, r, r) of ints: block
    entry (a, b) is the scale times s[a][b] / d^2.
    """
    primes, modulus, odd = [], 1, 2**26 + 1
    fact = np.array([math.factorial(i) for i in range(n + 1)], dtype=object)
    for indices, monos, b, den in _class_rows(p, n):
        # exact integers: a float row entry can underflow to 0 (p = 2, n about 170)
        seeds = b[..., monos[0, :, -1] == monos[0, :, -1].min()] != 0
        if seeds.shape[1] != seeds.shape[2] or not (seeds == np.eye(seeds.shape[1], dtype=bool)).all():
            raise RuntimeError("seeds do not prove the Gram block nonsingular; basis builder is broken")
        w = fact[monos].prod(axis=2)  # alpha!
        bound = ((b * b) @ w[..., None]).max()
        while modulus <= 2 * bound:
            odd -= 2
            # a base-2 Fermat test skips most composites; trial division up to its square root decides
            if pow(2, odd - 1, odd) == 1 and np.all(odd % np.arange(3, 2**13, 2)):
                primes.append(odd)
                modulus *= odd
        digits = []
        s = 0
        radix = 1
        for q in primes:
            bq = (b % q).astype(np.int64)
            r = _mod_matmul(bq * (w % q).astype(np.int64)[:, None, :] % q, bq.swapaxes(1, 2), q)
            # Garner: s = sum_i v_i prod_{j<i} q_j with balanced digits |v_i| < q_i / 2,
            # which is the residue of s mod prod q_j nearest 0
            for v, prior in zip(digits, primes):
                r = (r - v) * pow(prior, -1, q) % q
            digits.append(r - q * (2 * r > q))
            s = s + digits[-1].astype(object) * radix
            radix *= q
        # int / int is correctly rounded: each is float() of its exact coefficient
        yield indices, monos, (b / den).astype(float), den, s


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
    # each degree-2n monomial integral over the sphere is this times an integer
    scale = PiRational(Fraction(2, 2**n), p) / gamma_half(2 * n + p)
    num, den = scale.coeff.numerator, scale.coeff.denominator
    pi_power = math.pi ** (scale.pi_half / 2)
    # every degree-n monomial occurs in some raw member, so the basis runs over them all
    exponents = graded_monomials(p, n)[0][-count_homogeneous(p, n) :]
    column = {a: k for k, a in enumerate(map(tuple, exponents.tolist()))}
    coeffs = np.zeros((count_harmonic(p, n), len(exponents)))
    blocks = []
    for indices, monos, rows, d, s in _gram_blocks(p, n):
        # int / int is correctly rounded: each entry is float() of its exact entry
        g = pi_power * (num * s / (den * d * d)).astype(float)
        try:
            chol = np.linalg.cholesky(g)
        except np.linalg.LinAlgError:
            raise ValueError(f"degree {n} is beyond the float orthonormalization at p={p}") from None
        keys = map(tuple, monos.reshape(-1, p).tolist())
        cols = np.array([column[a] for a in keys]).reshape(monos.shape[:2])
        # L^-1 B from the reversed, upper triangular system: its LU needs no row
        # exchanges, which would put rounding noise where L^-1 B is exactly 0
        solved = np.linalg.solve(chol[:, ::-1, ::-1], rows[:, ::-1])[:, ::-1]
        coeffs[indices[..., None], cols[:, None, :]] = solved
        blocks += [(tuple(i), (d,) * len(i), tuple(map(tuple, c))) for i, c in zip(indices.tolist(), s.tolist())]
    # the basis is cached and shared by every caller
    coeffs.flags.writeable = False
    return HarmonicBasis(p, n, exponents, coeffs, scale, tuple(sorted(blocks)))


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
