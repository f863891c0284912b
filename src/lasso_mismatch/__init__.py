"""Asymptotic LASSO analysis under measurement-matrix uncertainty.

Theory side: scalar min-max saddle point, limiting MSE, and support-recovery
probabilities.  Simulation side: finite-dimensional instance generation, an
accelerated proximal-gradient LASSO solver, and seeded Monte Carlo trials.
Every name in the submodules' __all__ is exported here.  The theory modules
use only the standard library; the simulator, which imports numpy, is
imported on first use of one of its names (PEP 562), so a theory run never
loads numpy.
"""

from importlib import import_module

from . import kernels, predictor, prior
from .kernels import *  # noqa: F401,F403
from .predictor import *  # noqa: F401,F403
from .prior import *  # noqa: F401,F403

# the simulator's __all__, listed here so the names resolve without importing numpy
_SIMULATOR_NAMES = (
    "Instance",
    "LassoResult",
    "EmpiricalReport",
    "round_count",
    "generate_instance",
    "solve_lasso",
    "empirical_metrics",
    "run_grid",
    "run_trials",
)

__all__ = kernels.__all__ + prior.__all__ + predictor.__all__ + list(_SIMULATOR_NAMES)

__version__ = "0.1.0"


def __getattr__(name: str):
    # import_module, not `from . import`, which would look the name up here again
    if name == "simulator":
        return import_module(".simulator", __name__)
    if name in _SIMULATOR_NAMES:
        return getattr(import_module(".simulator", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
