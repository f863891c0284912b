"""Asymptotic LASSO analysis under measurement-matrix uncertainty.

Theory side: scalar min-max saddle point, limiting MSE, and support-recovery
probabilities.  Simulation side: finite-dimensional instance generation, an
accelerated proximal-gradient LASSO solver, and seeded Monte Carlo trials.
"""

from .kernels import (
    gauss_expect_e,
    gauss_expect_eta,
    q_function,
    soft_threshold,
    soft_threshold_value,
    std_normal_pdf,
)
from .predictor import (
    ModelConfig,
    NonConvergenceError,
    PredictionReport,
    ScalarSolution,
    maximize_over_beta,
    objective_D,
    optimal_lambda,
    predict_mse,
    predict_report,
    predict_support,
    solve_scalar,
)
from .prior import (
    Prior,
    prior_expect_e,
    prior_expect_eta_x0,
    sample_on_support,
    sparse_bernoulli,
)
from .simulator import (
    EmpiricalReport,
    Instance,
    LassoResult,
    TrialResult,
    empirical_metrics,
    generate_instance,
    round_count,
    run_grid,
    run_trials,
    solve_lasso,
)

__all__ = [
    "soft_threshold",
    "soft_threshold_value",
    "std_normal_pdf",
    "q_function",
    "gauss_expect_e",
    "gauss_expect_eta",
    "Prior",
    "sparse_bernoulli",
    "prior_expect_e",
    "prior_expect_eta_x0",
    "sample_on_support",
    "ModelConfig",
    "ScalarSolution",
    "PredictionReport",
    "NonConvergenceError",
    "objective_D",
    "maximize_over_beta",
    "solve_scalar",
    "predict_mse",
    "predict_support",
    "predict_report",
    "optimal_lambda",
    "Instance",
    "LassoResult",
    "TrialResult",
    "EmpiricalReport",
    "round_count",
    "generate_instance",
    "solve_lasso",
    "empirical_metrics",
    "run_grid",
    "run_trials",
]

__version__ = "0.1.0"
