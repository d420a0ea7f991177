"""Differentially private group-by-sum histogram releases.

A desk-scale, end-to-end pipeline: simulated federated clients scale and clip
their trip vectors, a server adds calibrated Laplace noise to the aggregate,
and an evaluation harness compares release strategies by weighted relative
error across privacy budgets.
"""

__version__ = "0.1.0"

from .schema import (
    Dimensions,
    MechanismConfig,
    ScaleMatrix,
    SparseHistogram,
    TripRecord,
    WeekDataset,
    user_histogram,
)
from .dp_core import (
    LaplaceNoiseSpec,
    PrivacyLedger,
    BudgetExceededError,
    clip_l1,
    exact_quantile,
    laplace_sample,
    private_quantile,
)
from .client import ClientContribution, client_work
from .aggregation import secure_sum
from .mechanisms import (
    ReleaseResult,
    fit_clip,
    fit_scales,
    run_activity_metric_scaling,
    run_budget_split,
    run_joint_clipping,
    run_release,
)
from .datagen import ActivityProfile, GeneratorSpec, generate, ground_truth
from .evaluation import EvalReport, ScoringPlan, clip_grid_search, sweep, weighted_relative_error

__all__ = [
    "__version__",
    "Dimensions", "MechanismConfig", "ScaleMatrix", "SparseHistogram",
    "TripRecord", "WeekDataset", "user_histogram",
    "LaplaceNoiseSpec", "PrivacyLedger", "BudgetExceededError",
    "clip_l1", "exact_quantile", "laplace_sample",
    "private_quantile",
    "ClientContribution", "client_work",
    "secure_sum",
    "ReleaseResult", "fit_clip", "fit_scales",
    "run_activity_metric_scaling", "run_budget_split", "run_joint_clipping",
    "run_release",
    "ActivityProfile", "GeneratorSpec", "generate", "ground_truth",
    "EvalReport", "ScoringPlan", "clip_grid_search", "sweep", "weighted_relative_error",
]
