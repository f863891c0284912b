"""Asymptotic LASSO analysis under measurement-matrix uncertainty.

Theory side: scalar min-max saddle point, limiting MSE, and support-recovery
probabilities.  Simulation side: finite-dimensional instance generation, an
accelerated proximal-gradient LASSO solver, and seeded Monte Carlo trials.
Every name in the submodules' __all__ is exported here.
"""

from . import kernels, predictor, prior, simulator
from .kernels import *  # noqa: F401,F403
from .predictor import *  # noqa: F401,F403
from .prior import *  # noqa: F401,F403
from .simulator import *  # noqa: F401,F403

__all__ = kernels.__all__ + prior.__all__ + predictor.__all__ + simulator.__all__

__version__ = "0.1.0"
