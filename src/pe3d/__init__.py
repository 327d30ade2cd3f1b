"""pe3d: three-dimensional wide-angle parabolic-equation solver for
underwater acoustic propagation, with a two-level parallel execution
model: threads inside a range step, worker processes across frequencies.

Exported is the run path: configs, runs, and the readers of what a run
writes.  Everything else is imported from its module."""

__version__ = "0.1.0"

from .config import Config, RunOptions, load_config
from .marching import FrequencyResult, run_frequency
from .output import load_manifest, read_tl_binary, read_tl_csv
from .parallel import FarmReport, frequency_farm

__all__ = [
    "__version__",
    "Config",
    "RunOptions",
    "load_config",
    "run_frequency",
    "FrequencyResult",
    "frequency_farm",
    "FarmReport",
    "read_tl_csv",
    "read_tl_binary",
    "load_manifest",
]
