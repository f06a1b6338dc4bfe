"""Flag-manifold multicone certificates for SL(3,R) surface-group representations."""

from .flags import (
    Flag,
    GapVector,
    GeometryError,
    GroupElem,
    NumericalDomainError,
    ProjectiveCovector,
    ProjectivePoint,
    SpdPoint,
    TangentDir,
    act_on_flag,
    act_on_point,
    busemann,
    distance,
    gap_vector,
    geodesic,
    is_transverse,
    thickening_contains,
)
from .plane import (
    BoundaryPoint,
    PlanePoint,
    ProjectionError,
    boundary_fiber_contains,
    conic_eval,
    criticality_residual,
    fiber_over_interior,
    project,
)
from .cones import (
    Multicone,
    NestEstimate,
    boundary_chart,
    contains_flag,
    endpoint_flags,
    is_nested,
    limit_flag,
    nest_estimate,
)
from .certificate import (
    CertGrid,
    CertReport,
    HermitianMat,
    NilpotentFlagMat,
    alpha_closed_forms,
    certificate_margin,
    commutator_fields,
    default_grid,
    model_matrices,
    pointing_vector,
    projector_pi,
    pushforward_check,
    sweep,
)
from .pde import (
    DomainSpec,
    HiggsDatum,
    ScalarField,
    SolveError,
    SolveReport,
    beta_field,
    curvature_field,
    residual,
    solve,
)
from .reps import (
    GapScan,
    Representation,
    barbot_twist,
    conic_position_check,
    flow_nesting_certify,
    gap_scan,
    iota_irr,
    iota_red,
    irreducible_representation,
    limit_flag_sample,
    octagon_fuchsian,
    reducible_representation,
)

__version__ = "0.1.0"
