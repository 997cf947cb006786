"""Spherical geometry in p dimensions.

Coordinates are (r, theta_{p-2}, ..., theta_1, phi) with each theta in
[0, pi] and phi in [0, 2*pi).  Exact surface-integral values are kept in
the form (rational) * pi^(m/2), which is closed under the Gamma-factor
arithmetic that produces them, so equality checks need no tolerance.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import orthopoly
from .orthopoly import RULE_BYTES_LIMIT
from .polyalg import CHUNK_ELEMENTS

__all__ = [
    "PiRational",
    "gamma_half",
    "solid_angle",
    "solid_angle_exact",
    "SphericalPoint",
    "spherical_to_cartesian",
    "cartesian_to_spherical",
    "line_element_coeffs",
    "monomial_sphere_integral",
    "QuadratureRule",
    "sphere_quadrature",
    "zonal_integral",
]

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class PiRational:
    """Exact number of the form coeff * pi^(pi_half / 2)."""

    coeff: Fraction
    pi_half: int = 0

    def __post_init__(self):
        object.__setattr__(self, "coeff", Fraction(self.coeff))
        ph = int(self.pi_half) if self.coeff else 0
        object.__setattr__(self, "pi_half", ph)

    def __float__(self) -> float:
        return float(self.coeff) * math.pi ** (self.pi_half / 2)

    def __mul__(self, other):
        if isinstance(other, PiRational):
            return PiRational(self.coeff * other.coeff, self.pi_half + other.pi_half)
        return PiRational(self.coeff * Fraction(other), self.pi_half)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, PiRational):
            if not other.coeff:
                raise ZeroDivisionError("division by exact zero")
            return PiRational(self.coeff / other.coeff, self.pi_half - other.pi_half)
        return PiRational(self.coeff / Fraction(other), self.pi_half)

    def __add__(self, other):
        if not isinstance(other, PiRational):
            other = PiRational(Fraction(other))
        if not self.coeff:
            return other
        if not other.coeff:
            return self
        if self.pi_half != other.pi_half:
            raise ValueError("cannot add exact values with different pi powers")
        return PiRational(self.coeff + other.coeff, self.pi_half)

    def __eq__(self, other):
        if isinstance(other, PiRational):
            return self.coeff == other.coeff and self.pi_half == other.pi_half
        if isinstance(other, (int, Fraction)):
            return self.pi_half == 0 and self.coeff == other
        return NotImplemented

    def __hash__(self):
        return hash((self.coeff, self.pi_half))

    def __str__(self):
        if self.pi_half == 0:
            return str(self.coeff)
        if self.pi_half % 2 == 0:
            power = self.pi_half // 2
            pi_part = "pi" if power == 1 else f"pi^{power}"
        else:
            pi_part = f"pi^({self.pi_half}/2)"
        return pi_part if self.coeff == 1 else f"{self.coeff}*{pi_part}"

    def __repr__(self):
        return f"PiRational({self.coeff!r}, {self.pi_half})"


def gamma_half(two_q: int) -> PiRational:
    """Gamma(two_q / 2), exact; two_q must be a positive integer."""
    two_q = int(two_q)
    if two_q < 1:
        raise ValueError("argument must be a positive half-integer doubled")
    if two_q % 2 == 0:
        return PiRational(Fraction(math.factorial(two_q // 2 - 1)))
    k = (two_q - 1) // 2
    return PiRational(Fraction(math.factorial(2 * k), 4**k * math.factorial(k)), 1)


def solid_angle_exact(p: int) -> PiRational:
    """Total solid angle of the unit sphere in R^p, i.e. 2 pi^(p/2) / Gamma(p/2)."""
    p = int(p)
    if p < 1:
        raise ValueError("dimension must be at least 1")
    g = gamma_half(p)
    return PiRational(Fraction(2) / g.coeff, p - g.pi_half)


@lru_cache(maxsize=256)  # read per call by the kernel, Funk-Hecke and addition routes, and per point by Green's
def solid_angle(p: int) -> float:
    return float(solid_angle_exact(p))


def monomial_sphere_integral(alpha) -> PiRational:
    """Exact integral of xi^alpha over the unit sphere in R^len(alpha)."""
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) < 1:
        raise ValueError("empty multi-index")
    if any(a < 0 for a in alpha):
        raise ValueError("negative exponent")
    if any(a % 2 for a in alpha):
        return PiRational(Fraction(0))
    out = PiRational(Fraction(2))
    for a in alpha:
        out = out * gamma_half(a + 1)
    return out / gamma_half(sum(alpha) + len(alpha))


@dataclass(frozen=True)
class SphericalPoint:
    """Point (r, theta_{p-2}, ..., theta_1, phi); thetas[j] holds theta_{j+1}."""

    r: float
    phi: float = 0.0
    thetas: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "r", float(self.r))
        object.__setattr__(self, "phi", float(self.phi))
        object.__setattr__(self, "thetas", tuple(float(t) for t in self.thetas))
        if self.r < 0:
            raise ValueError("radius must be nonnegative")
        if not 0 <= self.phi < TWO_PI:
            raise ValueError("phi must lie in [0, 2*pi)")
        for t in self.thetas:
            if not 0 <= t <= math.pi:
                raise ValueError("polar angles must lie in [0, pi]")

    @property
    def p(self) -> int:
        return len(self.thetas) + 2


def spherical_to_cartesian(pt: SphericalPoint) -> np.ndarray:
    p = pt.p
    x = np.empty(p)
    sin_prod = 1.0
    for k in range(p, 2, -1):
        theta = pt.thetas[k - 3]
        x[k - 1] = pt.r * sin_prod * math.cos(theta)
        sin_prod *= math.sin(theta)
    x[1] = pt.r * sin_prod * math.sin(pt.phi)
    x[0] = pt.r * sin_prod * math.cos(pt.phi)
    return x


def cartesian_to_spherical(x) -> SphericalPoint:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or len(x) < 2:
        raise ValueError("need a vector of at least two coordinates")
    p = len(x)
    r = float(np.linalg.norm(x))
    if r == 0.0:
        raise ValueError("angles are undefined at the origin")
    prefix = np.sqrt(np.cumsum(x * x))
    thetas = tuple(
        math.atan2(prefix[j], x[j + 1]) for j in range(1, p - 1)
    )
    phi = math.atan2(x[1], x[0])
    if phi < 0.0:
        phi += TWO_PI
    if phi >= TWO_PI:
        phi = 0.0
    return SphericalPoint(r=r, phi=phi, thetas=thetas)


def line_element_coeffs(pt: SphericalPoint) -> tuple:
    """Diagonal metric coefficients (g_rr, g_{theta_{p-2}}, ..., g_{phi phi})."""
    out = [1.0]
    factor = pt.r * pt.r
    for theta in reversed(pt.thetas):
        out.append(factor)
        factor *= math.sin(theta) ** 2
    out.append(factor)
    return tuple(out)


class QuadratureRule:
    """Nodes and positive weights, exact for polynomials up to exact_degree.

    p = None marks a 1-D rule on [-1, 1]; p >= 2 marks a rule on the unit
    sphere in R^p whose weights sum to the full solid angle.  Float64 inputs
    are kept as read-only views, not copies: callers must not change them.
    """

    __slots__ = ("nodes", "weights", "exact_degree", "p")

    def __init__(self, nodes, weights, exact_degree: int, p=None):
        nodes = np.asarray(nodes, dtype=float).view()
        weights = np.asarray(weights, dtype=float).view()
        if weights.ndim != 1 or len(weights) == 0:
            raise ValueError("weights must be a nonempty vector")
        if not np.all(weights > 0):
            raise ValueError("weights must all be positive")
        if p is None:
            if nodes.ndim != 1 or nodes.shape != weights.shape:
                raise ValueError("1-D rule needs matching node and weight vectors")
            if np.any(np.abs(nodes) > 1):
                raise ValueError("1-D nodes must lie in [-1, 1]")
        else:
            p = int(p)
            if p < 2:
                raise ValueError("sphere rules need p >= 2")
            if nodes.ndim != 2 or nodes.shape != (len(weights), p):
                raise ValueError("sphere rule needs nodes of shape (m, p)")
            # row-wise squared norms without a full-size squared temporary
            radii = np.sqrt(np.einsum("ij,ij->i", nodes, nodes))
            if np.max(np.abs(radii - 1.0)) > 1e-14:
                raise ValueError("sphere nodes must be unit vectors")
            total = solid_angle(p)
            if abs(float(np.sum(weights)) - total) > 1e-12 * total:
                raise ValueError("sphere rule weights do not sum to the solid angle")
        nodes.flags.writeable = False
        weights.flags.writeable = False
        self.nodes = nodes
        self.weights = weights
        self.exact_degree = int(exact_degree)
        self.p = p

    def __len__(self):
        return len(self.weights)

    def integrate(self, f) -> float:
        return float(np.sum(self.weights * orthopoly._values_on(f, self.nodes)))

    def to_json(self) -> str:
        return json.dumps(
            {
                "p": self.p,
                "exact_degree": self.exact_degree,
                "nodes": self.nodes.tolist(),
                "weights": self.weights.tolist(),
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "QuadratureRule":
        data = json.loads(text)
        return cls(
            nodes=data["nodes"],
            weights=data["weights"],
            exact_degree=data["exact_degree"],
            p=data["p"],
        )

    def to_csv(self) -> str:
        p_label = "none" if self.p is None else str(self.p)
        lines = [f"# p={p_label} exact_degree={self.exact_degree}"]
        if self.p is None:
            lines.append("node,weight")
            for t, w in zip(self.nodes, self.weights):
                lines.append(f"{t:.17g},{w:.17g}")
        else:
            lines.append(",".join(f"x{i + 1}" for i in range(self.p)) + ",weight")
            for row, w in zip(self.nodes, self.weights):
                lines.append(",".join(f"{v:.17g}" for v in row) + f",{w:.17g}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "QuadratureRule":
        lines = [ln for ln in text.strip().splitlines() if ln.strip()]
        if not lines or not lines[0].startswith("#"):
            raise ValueError("missing metadata line")
        meta = dict(item.split("=") for item in lines[0][1:].split())
        p = None if meta["p"] == "none" else int(meta["p"])
        rows = [ln.split(",") for ln in lines[2:]]
        weights = [float(row[-1]) for row in rows]
        if p is None:
            nodes = [float(row[0]) for row in rows]
        else:
            nodes = [[float(v) for v in row[:-1]] for row in rows]
        return cls(
            nodes=nodes,
            weights=weights,
            exact_degree=int(meta["exact_degree"]),
            p=p,
        )


def _rule_axes(p: int, degree: int) -> list:
    """The 1-D factors of the degree-`degree` product rule on S^{p-1}, as
    (nodes, weights) pairs: t = cos(theta_k) for k = p-2 down to 1, each a
    Gauss rule of m = (degree + 2) // 2 nodes for (1 - t^2)^((k-1)/2), a float
    exponent as in `bvp._t_rule`, then phi, 2m equally spaced angles, fastest
    in their product grid.  Read once per cached rule and cached transform table."""
    m = (degree + 2) // 2
    t_rules = [orthopoly.gauss_rule(orthopoly.Weight((k - 1) / 2, (k - 1) / 2), m) for k in range(p - 2, 0, -1)]
    phi = TWO_PI * np.arange(2 * m) / (2 * m)
    return [(rule.nodes, rule.weights) for rule in t_rules] + [(phi, np.full(2 * m, TWO_PI / (2 * m)))]


@lru_cache(maxsize=6)
def sphere_quadrature(p: int, degree: int) -> QuadratureRule:
    """Product rule on S^{p-1} exact for all monomials of total degree <= degree.

    Cached: high degrees in five or more dimensions reach millions of nodes,
    and callers evaluate many integrands against the same rule.  A rule of
    2m m^(p-2) nodes, m = (degree + 2) // 2, whose nodes and weights would
    take more than RULE_BYTES_LIMIT bytes is refused before any array is made.
    """
    p = int(p)
    if p < 2:
        raise ValueError("dimension must be at least 2")
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    m = (degree + 2) // 2
    huge = (p - 1) * math.log2(m) > 64  # past 2^64 nodes 2 m^(p-1) is not formed: at p = 10^6 it has 10^8 digits
    if huge or 2 * m ** (p - 1) * (p + 1) * 8 > RULE_BYTES_LIMIT:  # float64 nodes plus weights
        raise ValueError(f"a degree-{degree} rule on S^{p - 1} needs {f'2 * {m}^{p - 1}' if huge else 2 * m ** (p - 1)}"
                         f" nodes, more than {RULE_BYTES_LIMIT >> 20} MiB of nodes and weights")
    axes = _rule_axes(p, degree)
    if p == 2:
        [(phi, weights)] = axes
        return QuadratureRule(np.column_stack([np.cos(phi), np.sin(phi)]), weights, exact_degree=2 * m - 1, p=2)
    # sparse grids keep each axis a vector along its own dimension; the
    # products below broadcast, so only the weights and nodes fill the grid
    grids = np.meshgrid(*(nodes for nodes, _ in axes), indexing="ij", sparse=True)
    weight_grids = np.meshgrid(*(weights for _, weights in axes), indexing="ij", sparse=True)
    weights = np.ones_like(grids[0])
    for wg in weight_grids:
        weights = weights * wg
    coords = np.empty(weights.shape + (p,))
    sin_prod = np.ones_like(grids[0])
    for idx, k in enumerate(range(p - 2, 0, -1)):
        t = grids[idx]
        coords[..., k + 1] = sin_prod * t
        sin_prod = sin_prod * np.sqrt(1.0 - t * t)
    coords[..., 1] = sin_prod * np.sin(grids[-1])
    coords[..., 0] = sin_prod * np.cos(grids[-1])
    nodes = coords.reshape(-1, p)
    weights = weights.reshape(-1)
    # rounding can leave |node| a hair off 1; renormalize so the invariant is
    # exact, in row blocks so the norm's squared temporary stays small
    for start in range(0, len(nodes), CHUNK_ELEMENTS // p):
        block = nodes[start : start + CHUNK_ELEMENTS // p]
        block /= np.linalg.norm(block, axis=1)[:, None]
    return QuadratureRule(nodes, weights, exact_degree=2 * m - 1, p=p)


def zonal_integral(p: int, f, m: int = 64) -> float:
    """Omega_{p-2} times the integral of f(t) (1-t^2)^((p-3)/2) over [-1, 1]."""
    p = int(p)
    if p < 2:
        raise ValueError("dimension must be at least 2")
    w = orthopoly.Weight(Fraction(p - 3, 2), Fraction(p - 3, 2))
    rule = orthopoly.gauss_rule(w, m)
    vals = orthopoly._values_on(f, rule.nodes)
    if not np.all(np.isfinite(vals)):
        raise ValueError("integrand is not finite at a quadrature node")
    return solid_angle(p - 1) * float(np.sum(rule.weights * vals))
