"""Spherical harmonics and ultraspherical Legendre machinery in any dimension.

The modules split along the objects they own:

- ``polyalg``: exact and float multivariate polynomials.
- ``geometry``: solid angles, hyperspherical coordinates, sphere quadrature.
- ``harmonic``: harmonic polynomial bases and the addition theorem.
- ``orthopoly``: one-dimensional orthogonal-polynomial engine.
- ``legendre``: the ultraspherical Legendre family and its identities.
- ``bvp``: the Dirichlet problem on the unit ball.
- ``cli``: the ``hyperharm`` command.
"""

from . import cli
from .bvp import (
    BoundaryData,
    BvpSolution,
    builtin_boundary,
    generating_function_consistency,
    green_function,
    poisson_eval,
    project_boundary,
    series_eval,
)
from .geometry import (
    PiRational,
    QuadratureRule,
    SphericalPoint,
    cartesian_to_spherical,
    gamma_half,
    line_element_coeffs,
    monomial_sphere_integral,
    solid_angle,
    solid_angle_exact,
    sphere_quadrature,
    spherical_to_cartesian,
    zonal_integral,
)
from .harmonic import (
    HarmonicBasis,
    addition_theorem_eval,
    count_harmonic,
    count_homogeneous,
    harmonic_basis_raw,
    legendre_harmonic,
    orthonormalize,
)
from .legendre import (
    LegendreTable,
    dimension_shift,
    funk_hecke_coeff,
    generating_function_closed,
    generating_function_partial,
    integral_representation_eval,
    legendre_coeffs,
    legendre_eval,
    legendre_norm_sq,
    legendre_norm_sq_exact,
    ode_residual,
    rodrigues_eval,
)
from .orthopoly import (
    Poly1D,
    RecurrenceCoeffs,
    Weight,
    bernstein,
    best_approximation,
    gauss_rule,
    gram_schmidt,
    inner_product,
    jacobi_rodrigues,
    parseval_report,
    recurrence_coeffs,
    recurrence_residual,
)
from .polyalg import (
    ExactPolynomial,
    FloatPolynomial,
    check_orthogonal,
    random_orthogonal,
)

__version__ = "0.1.0"

# every public name imported above that is not a module
__all__ = ["__version__"] + sorted(k for k, v in globals().items() if k[0] != "_" and not isinstance(v, type(cli)))
