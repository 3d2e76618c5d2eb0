"""Exact-arithmetic stability loci, wall-and-chamber structures, admissible
cones and unstable-locus stratifications for linearised torus actions on
products of projective spaces."""

from .qpoly import (
    BiPoly,
    CommonZeroResult,
    CZStatus,
    InnerProduct,
    Rational,
    RationalVector,
    common_zero_exists,
    resultant,
)
from .polytope import (
    Arrangement2D,
    Cone,
    Face,
    HullPosition,
    Line2D,
    PointSet,
    chamber_decomposition_2d,
    hull_membership,
    hull_position,
    min_norm_point,
    min_norm_point_oracle,
)
from .action import (
    ExplicitPoint,
    GroupSpec,
    SupportPoint,
    TorusAction,
    build_double_extension,
    build_external_extension,
    build_product_action,
    forget_extension_axis,
    generic_support,
    orbit_point,
)
from .stability import (
    AdaptedRegion,
    HMValue,
    OneParamSubgroup,
    StabDimension,
    SweepStatus,
    SweepVerdict,
    TorusStatus,
    adapted_region,
    admissible_cone,
    cocharacter_fan,
    destabilising_beta,
    gm_stable_support,
    h_stable_explicit,
    hm_M,
    hm_mu,
    stab_u_dimension,
    torus_status,
    uhat_stable_explicit,
    universal_1ps,
    x_min,
)
from .vgit import (
    ChamberComplex,
    FlipReport,
    crossing_report,
    effective_cone,
    git_class,
    verify_external_change,
    wall_chamber_decomposition,
)
from .strata import (
    BetaIndex,
    StratumLabel,
    beta_index_set,
    p_beta,
    stratum_of,
    verify_stratification,
    z_ss_check,
)

__version__ = "0.1.0"
