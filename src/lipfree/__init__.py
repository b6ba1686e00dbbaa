"""lipfree: exact computation on Lipschitz spaces over finite metric spaces.

The package makes three kinds of questions computable at desk scale:

* transport norms of zero-sum vectors over a finite metric space, by
  min-cost flow and by a dual linear program that must agree;
* the extremal structure of the unit ball of those vectors (a polytope),
  by a purely metric betweenness criterion, checked against an LP
  vertex test that serves as its independent oracle;
* whether composition against a norm-one base-preserving map preserves
  every Lipschitz function's norm, certified by two independent
  algorithms, with discretized geodesic experiments quantifying the
  same question on interval and graph nets.
"""

from .metric_core import (
    PointedMetricSpace,
    PointPair,
    circle_net,
    from_weighted_graph,
    intermediate_points,
    interval_net,
    snowflake,
    validate_space,
)
from .lipschitz import (
    LipschitzFunction,
    interval_coordinates,
    lipschitz_norm,
    mcshane_extend,
    peak_function,
    pointwise_lip_at_scale,
)
from .freespace import (
    FreeVector,
    extreme_molecules,
    free_norm_dual,
    free_norm_primal,
    is_extreme_molecule,
    is_norming,
    molecule,
    pairing,
)
from .composition import (
    AgreementReport,
    IsometryCertificate,
    LipschitzMap,
    certify_isometry,
    certify_isometry_dual,
    certify_isometry_primal,
    compose,
    compose_maps,
    identity_map,
    operator_norm,
    push_forward,
)
from .geodesic import (
    DiscretizedGeodesicSpace,
    InverseProjection,
    check_geodesic_necessary,
    check_geodesic_sufficient,
    check_interval_necessary,
    check_interval_sufficient,
    inverse_projection,
    straight_path_check,
)

__version__ = "0.1.0"

__all__ = [
    "PointedMetricSpace", "PointPair", "validate_space", "from_weighted_graph",
    "interval_net", "circle_net", "snowflake", "intermediate_points",
    "LipschitzFunction", "lipschitz_norm", "pointwise_lip_at_scale",
    "mcshane_extend", "peak_function", "interval_coordinates",
    "FreeVector", "molecule", "pairing", "free_norm_primal", "free_norm_dual",
    "is_extreme_molecule", "extreme_molecules", "is_norming",
    "LipschitzMap", "IsometryCertificate", "AgreementReport", "identity_map",
    "compose", "compose_maps", "push_forward", "operator_norm",
    "certify_isometry", "certify_isometry_dual", "certify_isometry_primal",
    "DiscretizedGeodesicSpace", "InverseProjection", "straight_path_check",
    "inverse_projection", "check_interval_necessary", "check_interval_sufficient",
    "check_geodesic_necessary", "check_geodesic_sufficient",
    "__version__",
]
