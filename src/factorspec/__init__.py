"""Factor-model spectral event detection for multivariate time series.

Fits a high-dimensional factor model per moving window: the number of
factors p and the residual AR(1) coefficient b are chosen by minimizing
the Jensen-Shannon divergence between the empirical residual eigenvalue
density and a free-probability model density.
"""

__version__ = "0.1.0"

from .data_model import (
    RawDataSource,
    RawWindow,
    StandardizedWindow,
    WindowSpec,
    cut_window,
    load_csv,
    standardize,
)
from .datagen import (
    Ar1Spec,
    Event,
    EventSchedule,
    PlantedFactorSpec,
    brute_force_spectrum,
    case_schedule,
    generate_ar1,
    planted_factor_matrix,
    synthesize_case,
)
from .divergence import ZeroHandlingPolicy, js_divergence, kl_divergence
from .empirical_spectrum import (
    FactorDecomposition,
    ResidualCovariance,
    SpectralDensity,
    decompose,
    empirical_density,
    residual_covariance,
)
from .estimator import (
    ChangePoint,
    EstimationResult,
    ModelDensityCache,
    RunAverage,
    SearchGrid,
    Timeline,
    average_runs,
    detect_changes,
    estimate_window,
    sweep,
)
from .model_spectrum import (
    ComplexPoint,
    NoiseModelParams,
    ar1_mgf,
    default_lambda_grid,
    green_function,
    model_density,
    model_density_curve,
    select_physical_root,
    solve_moment_polynomial,
)

__all__ = [
    "Ar1Spec",
    "ChangePoint",
    "ComplexPoint",
    "EstimationResult",
    "Event",
    "EventSchedule",
    "FactorDecomposition",
    "ModelDensityCache",
    "NoiseModelParams",
    "PlantedFactorSpec",
    "RawDataSource",
    "RawWindow",
    "ResidualCovariance",
    "RunAverage",
    "SearchGrid",
    "SpectralDensity",
    "StandardizedWindow",
    "Timeline",
    "WindowSpec",
    "ZeroHandlingPolicy",
    "ar1_mgf",
    "average_runs",
    "brute_force_spectrum",
    "case_schedule",
    "cut_window",
    "decompose",
    "default_lambda_grid",
    "detect_changes",
    "empirical_density",
    "estimate_window",
    "generate_ar1",
    "green_function",
    "js_divergence",
    "kl_divergence",
    "load_csv",
    "model_density",
    "model_density_curve",
    "planted_factor_matrix",
    "residual_covariance",
    "select_physical_root",
    "solve_moment_polynomial",
    "standardize",
    "sweep",
    "synthesize_case",
]
