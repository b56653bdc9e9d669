"""Sparse-sensor state reconstruction and kernel-ODE data assimilation."""

from .assimilate import (
    AssimilationRun,
    contraction_rate_on_range,
    das_deim,
    interpolate_obs,
    kernel_rhs,
    one_sided_lipschitz_linear,
    post_transient_mean,
    relative_error_series,
)
from .dynamics import (
    Trajectory,
    VectorField,
    integrate,
    linear_field,
    lorenz63,
    lorenz96,
)
from .errors import (
    AssumptionError,
    ConfigError,
    DimensionError,
    DivergenceError,
    ObservationRangeError,
    RankError,
)
from .linalg import (
    PivotedQR,
    nullspace_orthonormal,
    pinv,
    qr_column_pivot,
    spectral_norm,
    svd_thin,
)
from .pod import BasisMatrix, compute_pod, truncation_error
from .reconstruct import (
    ErrorReport,
    error_report,
    optimal_kernel,
    prefactor_curve,
    sdeim,
    two_stage_sdeim,
    vanilla_deim,
)
from .sensing import (
    DeimCore,
    ObservationSeries,
    SensorSelection,
    add_noise,
    build_deim_core,
    observe,
    observe_trajectory,
    qdeim_place,
)

__version__ = "0.1.0"
