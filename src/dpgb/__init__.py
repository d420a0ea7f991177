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
    PrivacyLedger,
    BudgetExceededError,
    clip_l1,
    exact_quantile,
)
from .client import client_work
from .aggregation import secure_sum
from .mechanisms import ReleaseResult, fit_clip, fit_scales, run_release
from .datagen import ActivityProfile, GeneratorSpec, generate, ground_truth
from .evaluation import EvalReport, ScoringPlan, sweep, weighted_relative_error

__all__ = [
    "__version__",
    "Dimensions", "MechanismConfig", "ScaleMatrix", "SparseHistogram",
    "TripRecord", "WeekDataset", "user_histogram",
    "PrivacyLedger", "BudgetExceededError",
    "clip_l1", "exact_quantile",
    "client_work",
    "secure_sum",
    "ReleaseResult", "fit_clip", "fit_scales", "run_release",
    "ActivityProfile", "GeneratorSpec", "generate", "ground_truth",
    "EvalReport", "ScoringPlan", "sweep", "weighted_relative_error",
]
