"""Numerical laboratory for dimension lower bounds under k-parameter
families of orthogonal projections onto m-planes in R^n."""

__version__ = "0.1.0"

from .dimest import (
    DimensionEstimate,
    box_counting_dim,
    correlation_dim,
    project_points,
)
from .family import (
    ExtendedFamily,
    FamilyJacobian,
    FamilySpec,
    bracket_ceil,
    disjoint_slot_family,
    extend_family,
    family_frame,
    family_jacobian,
    family_rows,
    family_to_dict,
    family_from_dict,
    find_witness_subspace,
    load_family,
    nondegeneracy_check,
    p_of_l,
    p_oracle_dots,
    theorem_lower_bound,
    transversality_probe,
)
from .fractal import (
    SampledMeasure,
    embed,
    four_corner_cantor,
    lebesgue_ball,
    line_cantor,
    product_embed,
)
from .grassmann import (
    Frame,
    complement,
    projector,
    span_frame,
    span_projector,
    standard_frame,
)
from .lab import (
    ConfigError,
    ExperimentConfig,
    ExperimentReport,
    build_measure,
    extended_plane_derivative_check,
    lambda_grid,
    run_bound_check,
    run_sharpness,
    run_transversality,
    run_verify_suite,
    sharpness_family,
    sharpness_measure,
)
from .multivec import (
    cauchy_binet_norm,
    gram_norm,
    wedge_operator_norm,
)
