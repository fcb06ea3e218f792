"""Center of mass for massed particles on surfaces of curvature -1/R^2.

The geometry module holds the two models (hyperboloid sheet and
conformal disk) and the projection between them; barycenter computes
centers of mass by averaging in the coordinate 2 atanh(w/R) and by
the closed-form two-body lever point; karcher provides the independent
Riemannian barycenter, found by recentered Newton steps, used to
cross-check; equilibria certifies the balanced two-body pair, builds
the mirror pair and the three-body triples as (system, center) and
measures how the center behaves under rigid rotation.  The cli module
wraps everything behind ``hypercom`` / ``python -m hypercom``.
"""

from .barycenter import (
    DISK,
    HYPERBOLOID,
    LINE,
    CenterOfMass,
    MassedSystem,
    Particle,
    com_disk,
    com_euclidean,
    com_hyperboloid,
    com_line,
    disk_system,
    euclidean_limit_error,
    hyperboloid_system,
    lever_point,
    lever_residual,
    line_system,
    log_ratio,
    log_ratio_inv,
    to_disk_system,
    to_hyperboloid_system,
)
from .equilibria import (
    BalanceVerdict,
    RotationSample,
    RotationSweep,
    TwoBodyEquilibrium,
    balance_radius,
    classify_balance,
    diametric_system,
    eulerian_triple,
    lagrangian_triple,
    mirror_pair,
    rotation_sweep,
    uniform_angles,
)
from .errors import ConvergenceError, NumericalError, ValidationError
from .geometry import (
    GeodesicSegment,
    HPoint,
    LPoint,
    arc_between,
    arclength_from_pole,
    disk_distance,
    geodesic_between,
    hpoint,
    hyperboloid_distance,
    lpoint,
    minkowski_inner,
    project,
    project_line,
    rotate_disk,
    unproject,
    unproject_line,
)
from .karcher import (
    KarcherResult,
    TangentVector,
    exp_map,
    karcher_mean,
    karcher_solve,
    log_map,
)

__version__ = "0.1.0"

__all__ = [
    "BalanceVerdict",
    "CenterOfMass",
    "ConvergenceError",
    "DISK",
    "GeodesicSegment",
    "HPoint",
    "HYPERBOLOID",
    "KarcherResult",
    "LINE",
    "LPoint",
    "MassedSystem",
    "NumericalError",
    "Particle",
    "RotationSample",
    "RotationSweep",
    "TangentVector",
    "TwoBodyEquilibrium",
    "ValidationError",
    "arc_between",
    "arclength_from_pole",
    "balance_radius",
    "classify_balance",
    "com_disk",
    "com_euclidean",
    "com_hyperboloid",
    "com_line",
    "diametric_system",
    "disk_distance",
    "disk_system",
    "eulerian_triple",
    "euclidean_limit_error",
    "exp_map",
    "geodesic_between",
    "hpoint",
    "hyperboloid_distance",
    "hyperboloid_system",
    "karcher_mean",
    "karcher_solve",
    "lagrangian_triple",
    "lever_point",
    "lever_residual",
    "line_system",
    "log_map",
    "log_ratio",
    "log_ratio_inv",
    "lpoint",
    "minkowski_inner",
    "mirror_pair",
    "project",
    "project_line",
    "rotate_disk",
    "rotation_sweep",
    "to_disk_system",
    "to_hyperboloid_system",
    "uniform_angles",
    "unproject",
    "unproject_line",
]
