"""Independent oracles shared by the test modules.

Everything here is computed from first principles: classical textbook
recurrences in Fraction arithmetic, brute-force enumeration, exact
binomial expansions, and the raw harmonic basis by its defining slice
recursion on the exact polynomial algebra.  None of it touches the
package's own construction paths, so agreement is evidence rather than
tautology.
"""

import math
from fractions import Fraction
from itertools import combinations_with_replacement, product

import numpy as np

from hyperharm.harmonic import count_harmonic
from hyperharm.polyalg import ExactPolynomial, graded_monomials


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
    """Raw harmonic basis of degree n by the two-step slice recursion in x_p.

    Seeds x^alpha x_p^j0 with |alpha| = n - j0 run over j0 = 0 then 1, each in
    ascending lex order of alpha; the slice h at x_p^j is followed by
    -L h / ((j+2)(j+1)) at x_p^(j+2), L the Laplacian, until it vanishes.
    """
    members = []
    for j0 in range(min(n, 1) + 1):
        for alpha in sorted(a for a in product(range(n + 1), repeat=p - 1) if sum(a) == n - j0):
            h, j, total = ExactPolynomial.monomial(p, alpha + (0,)), j0, ExactPolynomial.zero(p)
            while not h.is_zero():
                total = total + ExactPolynomial(p, {a[:-1] + (j,): c for a, c in h.terms.items()})
                h = h.laplacian() * Fraction(-1, (j + 2) * (j + 1))
                j += 2
            members.append(total)
    return members


def raw_rows(p, n):
    """Raw degree-n members in basis order: (parity class, integer terms, denominator).

    The closed form of the slice recursion, one member and one term at a
    time.  A seed alpha of degree n - j0 in x_1..x_{p-1}, j0 in {0, 1}, gives
    the member sum_k (-1)^k j0!/(j0+2k)! x_p^(j0+2k) L^k x^alpha with L the
    Laplacian in x_1..x_{p-1}: L^k x^alpha is sum_{|beta|=k} (k!/beta!)
    prod_i alpha_i!/(alpha_i-2beta_i)! x^(alpha-2beta).  Its parity class is
    (alpha mod 2) + (j0,), and its terms share the denominator (j0+2K)!/j0!
    with K = |alpha| // 2.
    """
    dim = count_harmonic(p, n)
    exps, offsets, _ = graded_monomials(p - 1, n)
    seeds = [(n - d, tuple(a)) for d in (n, n - 1)[: n + 1] for a in exps[offsets[d] : offsets[d + 1]].tolist()]
    assert len(seeds) == dim
    for j0, alpha in seeds:
        half, top = (n - j0) // 2, n - (n - j0) % 2  # K and j0 + 2K
        terms = {}
        for beta in product(*(range(a // 2 + 1) for a in alpha)):
            k = sum(beta)
            c = math.perm(top, 2 * (half - k)) * math.factorial(k) // math.prod(map(math.factorial, beta))
            c *= math.prod(math.perm(a, 2 * b) for a, b in zip(alpha, beta))
            terms[tuple(a - 2 * b for a, b in zip(alpha, beta)) + (j0 + 2 * k,)] = (-1) ** k * c
        yield tuple(a % 2 for a in alpha) + (j0,), terms, math.perm(top, 2 * half)


def object_gram_blocks(p, n, raw_rows):
    """Gram blocks of raw rows (parity class, integer terms, denominator) in Python integers.

    The reference for the package's modular Gram: members are grouped by
    class in order of first appearance, and each block's integer matrix is
    B K B^T on object arrays, K_ij = prod_c (a_ic + a_jc - 1)!! over the
    class's sorted monomials a.  Yields what the package's blocks hold:
    member indices, monomials, float rows, denominators and s.
    """
    dfact = np.array([math.prod(range(m - 1, 0, -2)) for m in range(2 * n + 1)], dtype=object)
    classes = {}
    for idx, (parity, terms, denom) in enumerate(raw_rows):
        classes.setdefault(parity, []).append((idx, terms, denom))
    for members in classes.values():
        indices, member_terms, denoms = zip(*members)
        monos = sorted({a for terms in member_terms for a in terms})
        exps = np.array(monos, dtype=np.int64).reshape(len(monos), p)
        kernel = dfact[exps[:, None, :] + exps[None, :, :]].prod(axis=2)
        b = np.array([[terms.get(a, 0) for a in monos] for terms in member_terms], dtype=object)
        s = tuple(map(tuple, (b @ kernel @ b.T).tolist()))
        rows = (b / np.array(denoms, dtype=object)[:, None]).astype(float)
        yield indices, monos, rows, denoms, s


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

    Uses the package's rule and bases, but not its graded moment pass.
    """
    from hyperharm.geometry import sphere_quadrature
    from hyperharm.harmonic import orthonormalize

    rule = sphere_quadrature(f.p, q)
    weighted = rule.weights * f.values_at(rule.nodes)
    return tuple(
        tuple(float(v) for v in orthonormalize(f.p, n).evaluate_members(rule.nodes).T @ weighted)
        for n in range(n_max + 1)
    )
