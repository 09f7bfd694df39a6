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
from .divergence import js_divergence_masses
from .empirical_spectrum import density_from_eigenvalues
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
    NoiseModelParams,
    default_lambda_grid,
    model_density_curve,
    smoothed_density,
)

__all__ = [
    "Ar1Spec",
    "ChangePoint",
    "EstimationResult",
    "Event",
    "EventSchedule",
    "ModelDensityCache",
    "NoiseModelParams",
    "PlantedFactorSpec",
    "RawDataSource",
    "RawWindow",
    "RunAverage",
    "SearchGrid",
    "StandardizedWindow",
    "Timeline",
    "WindowSpec",
    "average_runs",
    "brute_force_spectrum",
    "case_schedule",
    "cut_window",
    "default_lambda_grid",
    "density_from_eigenvalues",
    "detect_changes",
    "estimate_window",
    "generate_ar1",
    "js_divergence_masses",
    "load_csv",
    "model_density_curve",
    "planted_factor_matrix",
    "smoothed_density",
    "standardize",
    "sweep",
    "synthesize_case",
]
