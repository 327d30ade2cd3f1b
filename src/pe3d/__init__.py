"""pe3d: three-dimensional wide-angle parabolic-equation solver for
underwater acoustic propagation, with a two-level parallel execution
model: threads inside a range step, worker processes across frequencies."""

__version__ = "0.1.0"

from .config import Config, RunOptions, load_config
from .environment import (
    Absorber,
    Environment,
    Grid3D,
    SoundSpeedProfile,
    SourceSpec,
    gaussian_starter,
    hankel_factor,
    refraction_index,
    wavenumber,
)
from .marching import (
    FrequencyResult,
    Marcher,
    apply_boundary,
    range_step,
    run_frequency,
)
from .operators import (
    StepCoefficients,
    apply_X,
    apply_Y,
    compute_rhs,
)
from .parallel import (
    ExecutorSpec,
    FarmReport,
    frequency_farm,
)
from .tridiag import (
    Diagonals,
    Factors,
    SolveBatch,
    dense_oracle_solve,
    factor,
    solve,
    solve_batch,
)

__all__ = [
    "__version__",
    "Config",
    "RunOptions",
    "load_config",
    "Absorber",
    "Environment",
    "Grid3D",
    "SoundSpeedProfile",
    "SourceSpec",
    "gaussian_starter",
    "hankel_factor",
    "refraction_index",
    "wavenumber",
    "FrequencyResult",
    "Marcher",
    "apply_boundary",
    "range_step",
    "run_frequency",
    "StepCoefficients",
    "apply_X",
    "apply_Y",
    "compute_rhs",
    "ExecutorSpec",
    "FarmReport",
    "frequency_farm",
    "Diagonals",
    "Factors",
    "SolveBatch",
    "dense_oracle_solve",
    "factor",
    "solve",
    "solve_batch",
]
