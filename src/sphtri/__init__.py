"""Exact and simulated distributions of random spherical triangle area/perimeter."""

from .coords import (
    CoordKind,
    CoordTriple,
    area_element,
    embed,
    embedding_point,
    jacobian_fd_check,
)
from .distributions import (
    ConditionalKind,
    DensityCurve,
    DensityKind,
    EllipticReduction,
    area_cdf,
    area_density,
    conditional_cdf,
    crofton_kernel,
    density_via_double_integral,
    elliptic_reduction_gap,
    perimeter_cdf,
    perimeter_cdf_grid,
    perimeter_density,
    region_boundary,
)
from .errors import (
    DegenerateDual,
    DegenerateTriangle,
    Divergent,
    NoSuchTriangle,
    NonFiniteIntegrand,
    OutOfDomain,
    SphtriError,
    ToleranceNotMet,
)
from .identities import (
    CevianDecomposition,
    IdentityResiduals,
    SolvedFormKind,
    bisector_decompose,
    bisector_relation_residual,
    bisector_threshold,
    identity_residuals,
    median_decompose,
    median_relation_residual,
    solved_forms,
)
from .montecarlo import (
    BatchKind,
    EmpiricalCdf,
    SampleBatch,
    ks_distance,
    region_coverage,
    sample_batch,
)
from .quadrature import (
    QuadratureResult,
    QuadratureSpec,
    carlson_rf_rd,
    ellip_E,
    ellip_K,
    integrate,
)
from .sphere import (
    RngStream,
    TriangleMetrics,
    lhuilier_excess,
    sample_uniform_points,
    triangle_elements,
)

__version__ = "0.1.0"
