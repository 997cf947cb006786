"""Independent oracles shared by the test modules.

Everything here is computed from first principles: classical textbook
recurrences in Fraction arithmetic, brute-force enumeration, exact
binomial expansions, and the raw harmonic basis by its defining slice
recursion on the exact polynomial algebra and by its closed form.  None of it touches the
package's own construction paths, so agreement is evidence rather than
tautology.
"""

import math
import re
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np

from hyperharm.polyalg import ExactPolynomial


def chebyshev_rows(n_max):
    """Exact ascending coefficients of T_0 .. T_{n_max} on [-1, 1]."""
    rows = [[Fraction(1)], [Fraction(0), Fraction(1)]]
    while len(rows) <= n_max:
        prev, cur = rows[-2], rows[-1]
        nxt = [Fraction(0)] * (len(cur) + 1)
        for i, c in enumerate(cur):
            nxt[i + 1] += 2 * c
        for i, c in enumerate(prev):
            nxt[i] -= c
        rows.append(nxt)
    return [tuple(r) for r in rows[: n_max + 1]]


def classical_legendre_rows(n_max):
    """Exact ascending coefficients of the classical Legendre P_0 .. P_{n_max}."""
    rows = [[Fraction(1)], [Fraction(0), Fraction(1)]]
    while len(rows) <= n_max:
        n = len(rows) - 1
        prev, cur = rows[-2], rows[-1]
        nxt = [Fraction(0)] * (len(cur) + 1)
        for i, c in enumerate(cur):
            nxt[i + 1] += Fraction(2 * n + 1, n + 1) * c
        for i, c in enumerate(prev):
            nxt[i] -= Fraction(n, n + 1) * c
        rows.append(nxt)
    return [tuple(r) for r in rows[: n_max + 1]]


def monomial_count(p, n):
    """Number of degree-n monomials in p variables, by enumeration."""
    return sum(1 for _ in combinations_with_replacement(range(p), n))


def slice_recursion_basis(p, n):
    """Gelfand-Tsetlin basis of degree n by the two-step slice recursion in x_p.

    For j = 0..n and each member h of this oracle's own degree-j basis in
    x_1..x_{p-1} (for one variable: 1 and x_1), the seed |x'|^2K h sits at
    x_p^j0, j0 = (n - j) mod 2 and K = (n - j - j0) / 2; the slice g at x_p^k
    is followed by -L g / ((k+2)(k+1)) at x_p^(k+2), L the Laplacian, until
    it vanishes.
    """
    if p == 1:
        return [ExactPolynomial.monomial(1, (n,))] if n < 2 else []
    rho_sq = sum((ExactPolynomial.monomial(p - 1, [2 * (i == k) for i in range(p - 1)]) for k in range(p - 1)),
                  ExactPolynomial.zero(p - 1))
    members = []
    for j in range(n + 1):
        j0, half = (n - j) % 2, (n - j) // 2
        for h in slice_recursion_basis(p - 1, j):
            g, k, total = rho_sq**half * h, j0, ExactPolynomial.zero(p)
            while not g.is_zero():
                total = total + ExactPolynomial(p, {a + (k,): c for a, c in g.terms.items()})
                g = g.laplacian() * Fraction(-1, (k + 2) * (k + 1))
                k += 2
            members.append(total)
    return members


def closed_form_members(p, n, lower):
    """Degree-n members by their closed form, one member and one term at a time.

    `lower(j)` lists the degree-j members h in x_1..x_{p-1} as {exponent:
    int} dicts.  Member (j, h), in ascending j and then the order of h, is
    sum_t c_t x_p^(j0+2t) |x'|^2s h, s = K - t, where c_(t+1) = -c_t
    2s(2s+2j+p-3) / ((j0+2t+1)(j0+2t+2)) from c_0 = 1, scaled to coprime
    integers, and |x'|^2s h has s!/delta! h_gamma at gamma + 2 delta, |delta| = s.
    Yields each member's integer terms and its Fischer norm sum alpha! c^2.
    """
    for j in range(n + 1):
        j0, half = (n - j) % 2, (n - j) // 2
        profile = [Fraction(1)]
        for t in range(half):  # the slice recursion on |x'|^2s h, s = K - t
            s = half - t
            profile.append(-profile[-1] * 2 * s * (2 * s + 2 * j + p - 3) / ((j0 + 2 * t + 1) * (j0 + 2 * t + 2)))
        lcm = math.lcm(*(c.denominator for c in profile))
        ints = [int(c * lcm) for c in profile]
        divisor = math.gcd(*ints)
        ints = [c // divisor for c in ints]
        for h in lower(j):
            terms = {}
            for t, c in enumerate(ints):
                s = half - t
                for picks in combinations_with_replacement(range(p - 1), s):
                    delta = [picks.count(i) for i in range(p - 1)]
                    weight = c * math.factorial(s) // math.prod(map(math.factorial, delta))
                    for gamma, v in h.items():
                        key = tuple(g + 2 * d for g, d in zip(gamma, delta)) + (j0 + 2 * t,)
                        terms[key] = terms.get(key, 0) + weight * v
            terms = {a: v for a, v in terms.items() if v}
            yield terms, sum(math.prod(map(math.factorial, a)) * v * v for a, v in terms.items())


def dense_row_terms(exponents, matrix):
    """Each row of a coefficient matrix over the monomials `exponents` as a {exponent: coefficient}
    dict, by scanning every entry of the row, zeros included."""
    monos = [tuple(int(a) for a in alpha) for alpha in exponents]
    return [{alpha: c for alpha, c in zip(monos, row) if c} for row in matrix]


def object_gram_blocks(p, n, members):
    """Sphere Gram blocks of degree-n members in Python integers, one per parity class.

    Members are grouped by the parity class of their exponents (each must
    have one), in order of first appearance; members of different classes
    are orthogonal because a monomial with an odd exponent integrates to 0.
    Coefficients must be integers.  Each block is B K B^T on object arrays, K_ij = prod_c (a_ic + a_jc - 1)!!
    over the class's sorted monomials a: the sphere integrals of the
    products in units of 2 pi^(p/2) / (2^n Gamma(n + p/2)).  Yields the
    member indices and the block's entries.
    """
    dfact = np.array([math.prod(range(m - 1, 0, -2)) for m in range(2 * n + 1)], dtype=object)
    classes = {}
    for idx, member in enumerate(members):
        (parity,) = {tuple(a % 2 for a in alpha) for alpha in member.terms}
        assert all(Fraction(c).denominator == 1 for c in member.terms.values())
        classes.setdefault(parity, []).append((idx, {a: int(c) for a, c in member.terms.items()}))
    for group in classes.values():
        indices, member_terms = zip(*group)
        monos = sorted({a for terms in member_terms for a in terms})
        exps = np.array(monos, dtype=np.int64).reshape(len(monos), p)
        kernel = dfact[exps[:, None, :] + exps[None, :, :]].prod(axis=2)
        b = np.array([[terms.get(a, 0) for a in monos] for terms in member_terms], dtype=object)
        yield indices, tuple(map(tuple, (b @ kernel @ b.T).tolist()))


def meshgrid_sphere_rule(p, degree):
    """Nodes and weights of the product rule on S^{p-1}, assembled on full meshgrids.

    The axis rules (Gauss in cos(theta_k), uniform in phi) come from the
    package; the assembly materialises every axis as a full grid and must
    agree bit for bit with one that broadcasts per-axis vectors.
    """
    from hyperharm.orthopoly import Weight, gauss_rule

    m = (degree + 2) // 2
    n_phi = 2 * m
    phi = 2.0 * math.pi * np.arange(n_phi) / n_phi
    phi_weight = 2.0 * math.pi / n_phi
    t_rules = [
        gauss_rule(Weight(Fraction(k - 1, 2), Fraction(k - 1, 2)), m)
        for k in range(p - 2, 0, -1)
    ]
    grids = np.meshgrid(*([rule.nodes for rule in t_rules] + [phi]), indexing="ij")
    weight_axes = [rule.weights for rule in t_rules] + [np.full(n_phi, phi_weight)]
    weights = np.ones_like(grids[0])
    for wg in np.meshgrid(*weight_axes, indexing="ij"):
        weights = weights * wg
    coords = np.empty(grids[0].shape + (p,))
    sin_prod = np.ones_like(grids[0])
    for idx, k in enumerate(range(p - 2, 0, -1)):
        t = grids[idx]
        coords[..., k + 1] = sin_prod * t
        sin_prod = sin_prod * np.sqrt(1.0 - t * t)
    coords[..., 1] = sin_prod * np.sin(grids[-1])
    coords[..., 0] = sin_prod * np.cos(grids[-1])
    nodes = coords.reshape(-1, p)
    nodes = nodes / np.linalg.norm(nodes, axis=1)[:, None]
    return nodes, weights.reshape(-1)


def weighted_moment_exact(k, a, b):
    """Integral of t^k (1-t)^a (1+t)^b over [-1, 1] for integer a, b >= 0."""
    total = Fraction(0)
    for i in range(a + 1):
        for j in range(b + 1):
            e = k + i + j
            if e % 2 == 0:
                c = math.comb(a, i) * math.comb(b, j) * (-1) ** i
                total += Fraction(2 * c, e + 1)
    return total


def unit_vectors(rng, p, m):
    v = rng.normal(size=(m, p))
    return v / np.linalg.norm(v, axis=1)[:, None]


def evaluated_projection(f, n_max, q):
    """Series coefficients of boundary data f by evaluating every orthonormal
    member on the nodes of the degree-q product rule: sum_nodes w f Y.

    Uses the package's rule and the members' power-basis rows, but neither its
    transform nor its member recurrence.
    """
    from hyperharm.geometry import sphere_quadrature
    from hyperharm.harmonic import orthonormalize
    from hyperharm.polyalg import evaluate_monomials

    rule = sphere_quadrature(f.p, q)
    weighted = rule.weights * f.values_at(rule.nodes)
    bases = (orthonormalize(f.p, n) for n in range(n_max + 1))
    return tuple(
        tuple(float(v) for v in evaluate_monomials(rule.nodes, b.exponents, b.coeffs).T @ weighted)
        for b in bases
    )


_NUMBER = re.compile(r"[-+]?\d+(?:\.\d*)?(?:e[-+]\d+)?")


def same_up_to_rounding(out: str, pinned: str, tol: float) -> bool:
    """`out` is `pinned` byte for byte but for its numbers, each within `tol` of the pinned one.

    For output whose floats come from BLAS sums, which can end in other bits
    on another BLAS build or CPU: its words and layout are pinned exactly."""
    got, want = _NUMBER.findall(out), _NUMBER.findall(pinned)
    return (_NUMBER.split(out) == _NUMBER.split(pinned) and len(got) == len(want)
            and all(abs(float(a) - float(b)) <= tol for a, b in zip(got, want)))
