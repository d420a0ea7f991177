"""Weighted-relative-error scoring and the mechanism comparison harness.

The score for one release: per metric, each cell with enough contributing
devices and a positive true value scores |released - true| / true (a missing
or suppressed cell counts as estimate 0, so error 1), and cells are averaged
with weights n_{r,d,a} / n_r taken from the true trip counts, normalized over
the cells that passed eligibility.  Evaluation reads ground-truth side
information only; nothing here feeds back into the ledger-governed release
path.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .datagen import GroundTruth, ground_truth
from .dp_core import derive_seed
from .mechanisms import finish_release, fit_clip, fit_scales, prepare_release
from .schema import (
    ConfigError,
    Dimensions,
    MECHANISM_KINDS,
    METRIC_NAMES,
    NUM_TRIPS,
    MechanismConfig,
    ScaleMatrix,
    WeekDataset,
)

DEFAULT_MIN_DEVICES = 20   # desk-scale stand-in for the production floor of 2000 devices
PRODUCTION_MIN_DEVICES = 2000
TARGET_WRE = 0.03
DEFAULT_EPSILON_GRID = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0)
DEFAULT_MECHANISMS = ("joint_clipping", "budget_split", "activity_metric_scaling")

# Reference measurements from a production-scale proxy run at epsilon = 2,
# (num_trips, distance, duration); desk-scale synthetic data reproduces the
# ordering, not the magnitudes.
REFERENCE_WRE_EPS2 = {
    "joint_clipping": (0.195, 0.072, 0.038),
    "budget_split": (0.091, 0.150, 0.088),
    "activity_metric_scaling": (0.028, 0.040, 0.028),
}

SWEEP_CSV_HEADER = ["mechanism", "epsilon", "repeat", "metric", "wre"]
SWEEP_AGG_CSV_HEADER = ["mechanism", "epsilon", "wre_mean", "wre_std"]


@dataclass(frozen=True, eq=False)
class ScoringPlan:
    """The eligible cells of one ground truth, per metric, in truth order.

    Built once per (truth, devices, min_devices) and shared by every release
    scored against that truth.  For metric m, ``flat[m]`` holds the eligible
    flat cell indices, ``truth[m]`` their true values, ``weights[m]`` their
    weights n_{r,d,a} / n_r and ``devices[m]`` their device counts.
    """

    dims: Dimensions
    min_devices: int
    flat: tuple[np.ndarray, ...]
    truth: tuple[np.ndarray, ...]
    weights: tuple[np.ndarray, ...]
    devices: tuple[np.ndarray, ...]

    @classmethod
    def build(cls, truth: GroundTruth, min_devices: int) -> "ScoringPlan":
        """Eligible cells have at least ``min_devices`` contributing devices and
        a strictly positive true value; true-zero cells are excluded since
        their relative error is undefined.

        The weights come from the true trip counts and are shared by all three
        metrics; within one region they sum to 1 before eligibility filtering.
        Each region's total adds its trip-count cells in truth order.
        """
        dims = truth.dims
        slice_cells = dims.num_regions * 3
        # n_{r,d,a}: the true value of the cell's num_trips cell, which
        # sorts at or before it
        key = truth.flat - truth.flat // slice_cells % 3 * slice_cells
        at = np.searchsorted(truth.flat, key)
        counts = np.where(truth.flat[at] == key, truth.totals[at], 0.0)[truth.order]
        flat, totals, devices = (column[truth.order] for column in (
            truth.flat, truth.totals, truth.devices))
        metric = flat // slice_cells % 3
        region = flat // 3 % dims.num_regions
        trips = metric == NUM_TRIPS
        region_totals = np.bincount(region[trips], weights=totals[trips],
                                    minlength=dims.num_regions)
        per_region = region_totals[region]
        weights = np.zeros(flat.size)
        has_trips = per_region > 0
        weights[has_trips] = counts[has_trips] / per_region[has_trips]
        eligible = (totals > 0) & (devices >= min_devices)
        picks = [np.flatnonzero(eligible & (metric == m)) for m in range(len(METRIC_NAMES))]
        return cls(
            dims=dims,
            min_devices=min_devices,
            flat=tuple(flat[pick] for pick in picks),
            truth=tuple(totals[pick] for pick in picks),
            weights=tuple(weights[pick] for pick in picks),
            devices=tuple(devices[pick] for pick in picks),
        )


@dataclass(frozen=True)
class CellScore:
    metric: str
    activity: int
    region: int
    direction: int
    truth: float
    released: float
    rel_error: float
    weight: float
    devices: int


@dataclass(frozen=True, eq=False)
class EvalReport:
    """Per-metric weighted relative error plus per-cell diagnostics."""

    wre: dict[str, float]
    eligible: dict[str, int]
    suppressed_eligible: dict[str, int]
    plan: ScoringPlan
    estimates: tuple[np.ndarray, ...]
    errors: tuple[np.ndarray, ...]

    @property
    def overall(self) -> float:
        return float(np.mean([self.wre[name] for name in METRIC_NAMES]))

    @property
    def has_eligible_cells(self) -> bool:
        return any(self.eligible[name] > 0 for name in METRIC_NAMES)

    @property
    def cells(self) -> tuple[CellScore, ...]:
        """One score per eligible cell, metric by metric, in truth order."""
        plan = self.plan
        scores = []
        for m, name in enumerate(METRIC_NAMES):
            for flat, true_value, estimate, error, weight, count in zip(
                    plan.flat[m].tolist(), plan.truth[m].tolist(),
                    self.estimates[m].tolist(), self.errors[m].tolist(),
                    plan.weights[m].tolist(), plan.devices[m].tolist()):
                a, _, r, d = plan.dims.cell_tuple(flat)
                scores.append(CellScore(name, a, r, d, true_value, estimate, error,
                                        weight, count))
        return tuple(scores)


def _running_total(values: np.ndarray) -> float:
    # left-to-right like a loop's running sum; np.sum adds pairwise, which
    # can change the last digit
    return float(np.cumsum(values)[-1]) if values.size else 0.0


def weighted_relative_error(plan: ScoringPlan, released: np.ndarray) -> EvalReport:
    """Score a dense release against the exact totals behind ``plan``.

    A cell the release left at 0 (suppressed, clamped or missing) counts as
    estimate 0.  A metric with no eligible cells scores NaN and is flagged by
    ``has_eligible_cells``.
    """
    if released.shape != (plan.dims.total_cells,):
        raise ValueError(f"released vector shape {released.shape} does not match {plan.dims}")
    wre: dict[str, float] = {}
    eligible: dict[str, int] = {}
    suppressed: dict[str, int] = {}
    estimates, errors = [], []
    for m, name in enumerate(METRIC_NAMES):
        estimate = released[plan.flat[m]]
        error = np.abs(estimate - plan.truth[m]) / plan.truth[m]
        weight_sum = _running_total(plan.weights[m])
        weighted_sum = _running_total(plan.weights[m] * error)
        wre[name] = weighted_sum / weight_sum if weight_sum > 0 else math.nan
        eligible[name] = int(estimate.size)
        suppressed[name] = int(np.count_nonzero(estimate == 0.0))
        estimates.append(estimate)
        errors.append(error)
    return EvalReport(wre, eligible, suppressed, plan, tuple(estimates), tuple(errors))


# --- hyperparameter fitting ---------------------------------------------------

@dataclass(frozen=True)
class FittedHyperparameters:
    """Scale and clip choices fitted on proxy data at one quantile."""

    scales: ScaleMatrix
    ams_clip: float
    joint_clip: float
    split_clips: np.ndarray
    quantile: float

    def config_for(self, kind: str, epsilon: float, tau: float, seed: int) -> MechanismConfig:
        if kind == "budget_split":
            clip: float | np.ndarray = self.split_clips
            scales = ScaleMatrix.ones(self.scales.num_activities)
        elif kind == "joint_clipping":
            clip = self.joint_clip
            scales = ScaleMatrix.ones(self.scales.num_activities)
        elif kind == "activity_metric_scaling":
            clip = self.ams_clip
            scales = self.scales
        else:
            raise ConfigError(f"unknown mechanism {kind!r}")
        return MechanismConfig(epsilon, kind, clip, scales, tau, seed)


def fit_hyperparameters(proxy: WeekDataset, dims: Dimensions,
                        q: float = 0.95) -> FittedHyperparameters:
    """Fit everything the three mechanisms need, on proxy data only.

    The per-slice clip grid for budget_split reuses the per-(activity, metric)
    norm quantiles, which is exactly what tuning each slice's clip separately
    means.
    """
    scales = fit_scales(proxy, dims, q)
    ones = ScaleMatrix.ones(dims.num_activities)
    return FittedHyperparameters(
        scales=scales,
        ams_clip=fit_clip(proxy, scales, dims, q),
        joint_clip=fit_clip(proxy, ones, dims, q),
        split_clips=scales.entries.copy(),
        quantile=q,
    )


# --- sweep -------------------------------------------------------------------

def run_seed(base_seed: int, mechanism: str, epsilon: float, repeat: int) -> int:
    """Seed for one sweep cell, independent of execution order."""
    return derive_seed(base_seed, mechanism, repr(float(epsilon)), repeat)


@dataclass(frozen=True)
class SweepRow:
    mechanism: str
    epsilon: float
    repeat: int
    seed: int
    wre: dict[str, float]
    overall: float


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    mechanisms: tuple[str, ...]
    epsilons: tuple[float, ...]
    repeats: int
    min_devices: int
    tau: float
    fitted: FittedHyperparameters | None = None

    def mean_std(self, mechanism: str, epsilon: float) -> tuple[float, float]:
        values = [row.overall for row in self.rows
                  if row.mechanism == mechanism and row.epsilon == epsilon]
        mean = float(np.mean(values))
        std = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
        return mean, std

    def metric_means(self, mechanism: str, epsilon: float) -> dict[str, float]:
        rows = [row for row in self.rows
                if row.mechanism == mechanism and row.epsilon == epsilon]
        return {name: float(np.mean([row.wre[name] for row in rows]))
                for name in METRIC_NAMES}


def sweep(
    data: WeekDataset,
    proxy: WeekDataset,
    epsilons,
    mechanisms,
    repeats: int,
    seed: int,
    dims: Dimensions,
    *,
    min_devices: int = DEFAULT_MIN_DEVICES,
    tau: float = 0.0,
    fit_q: float = 0.95,
    test_mode: bool = False,
) -> SweepResult:
    """Fit on the proxy, then release and score every (mechanism, eps, repeat).

    Passing the evaluation dataset itself as ``proxy`` is the caller's
    explicit unsafe-fit decision.  Sweep cells use independently derived
    seeds, so the order they run in cannot change any number.  The lists
    and settings are checked before any fitting starts.
    """
    if repeats < 1:
        raise ConfigError(f"repeats must be >= 1, got {repeats}")
    epsilons = tuple(float(e) for e in epsilons)
    mechanisms = tuple(mechanisms)
    _check_distinct("mechanism", mechanisms)
    _check_distinct("epsilon", epsilons)
    for kind in mechanisms:
        if kind not in MECHANISM_KINDS:
            raise ConfigError(f"unknown mechanism {kind!r}; expected one of {MECHANISM_KINDS}")
    for epsilon in epsilons:
        if not (math.isfinite(epsilon) and epsilon > 0):
            raise ConfigError(f"epsilon must be finite and > 0, got {epsilon!r}")
    if not (math.isfinite(tau) and tau >= 0):
        raise ConfigError(f"threshold_tau must be finite and >= 0, got {tau!r}")

    fitted = fit_hyperparameters(proxy, dims, fit_q)
    plan = ScoringPlan.build(ground_truth(data, dims), min_devices)
    rows = []
    for kind in mechanisms:
        prepared = prepare_release(fitted.config_for(kind, epsilons[0], tau, seed), data, dims)
        for epsilon in epsilons:
            for repeat in range(repeats):
                cell_seed = run_seed(seed, kind, epsilon, repeat)
                result = finish_release(prepared, epsilon, tau, cell_seed, test_mode=test_mode)
                report = weighted_relative_error(plan, result.released)
                rows.append(SweepRow(kind, epsilon, repeat, cell_seed, dict(report.wre),
                                     report.overall))
    return SweepResult(tuple(rows), mechanisms, epsilons, repeats, min_devices, tau, fitted)


def _check_distinct(name: str, values: tuple) -> None:
    if not values:
        raise ConfigError(f"the {name} list is empty")
    for i, value in enumerate(values):
        if value in values[:i]:
            raise ConfigError(f"{name} {value!r} is listed twice")


# --- output files ------------------------------------------------------------

def write_sweep_csv(path, result: SweepResult) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_CSV_HEADER)
        for row in result.rows:
            for name in METRIC_NAMES:
                writer.writerow([row.mechanism, row.epsilon, row.repeat, name, row.wre[name]])


def write_sweep_agg_csv(path, result: SweepResult) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_AGG_CSV_HEADER)
        for kind in result.mechanisms:
            for epsilon in result.epsilons:
                mean, std = result.mean_std(kind, epsilon)
                writer.writerow([kind, epsilon, mean, std])


def write_curve_data(path, result: SweepResult) -> None:
    """Plotter-agnostic XY data: one column per mechanism plus the target line.

    The epsilon axis is meant to be drawn log-scaled; the constant column is
    the 3% utility target.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# overall weighted relative error vs privacy budget (log-x suggested)\n")
        fh.write("# columns: epsilon " + " ".join(result.mechanisms) + " target\n")
        for epsilon in result.epsilons:
            means = [result.mean_std(kind, epsilon)[0] for kind in result.mechanisms]
            fh.write(" ".join([repr(epsilon)] + [repr(m) for m in means] + [repr(TARGET_WRE)]))
            fh.write("\n")
        fh.write("# reference, production-scale proxy at epsilon=2 "
                 "(num_trips, distance, duration):\n")
        for kind, values in REFERENCE_WRE_EPS2.items():
            fh.write(f"#   {kind}: {values[0]}, {values[1]}, {values[2]}\n")


def render_metric_table(result: SweepResult, epsilon: float) -> str:
    """Plain-text per-metric breakdown at one budget, with the reference rows."""
    nearest = min(result.epsilons, key=lambda e: abs(e - epsilon))
    width = max(len(kind) for kind in result.mechanisms) + 2
    floor = f", min_devices = {result.min_devices}" if result.min_devices >= 0 else ""
    lines = [
        f"weighted relative error by metric (epsilon = {nearest:g}, "
        f"{result.repeats} repeats{floor})",
        f"{'mechanism':<{width}}" + "".join(f"{name:>12}" for name in METRIC_NAMES),
    ]
    for kind in result.mechanisms:
        means = result.metric_means(kind, nearest)
        lines.append(f"{kind:<{width}}" + "".join(f"{means[name]:>12.4f}" for name in METRIC_NAMES))
    lines.append(f"utility target: {TARGET_WRE}")
    lines.append("reference, production-scale proxy at epsilon = 2:")
    for kind, values in REFERENCE_WRE_EPS2.items():
        lines.append(
            f"{kind:<{width}}" + "".join(f"{v:>12.3f}" for v in values))
    return "\n".join(lines) + "\n"


def read_sweep_csv(path) -> tuple[tuple[SweepRow, ...], tuple[str, ...], tuple[float, ...], int]:
    """Parse a sweep CSV back into rows (for the report command)."""
    grouped: dict[tuple[str, float, int], dict[str, float]] = {}
    mechanisms: list[str] = []
    epsilons: list[float] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != SWEEP_CSV_HEADER:
            raise ConfigError(f"{path}: bad header {header!r}, expected {SWEEP_CSV_HEADER}")
        for row in reader:
            if not row:
                continue
            kind, epsilon, repeat = row[0], float(row[1]), int(row[2])
            grouped.setdefault((kind, epsilon, repeat), {})[row[3]] = float(row[4])
            if kind not in mechanisms:
                mechanisms.append(kind)
            if epsilon not in epsilons:
                epsilons.append(epsilon)
    rows = []
    for (kind, epsilon, repeat), wre in grouped.items():
        if sorted(wre) != sorted(METRIC_NAMES):
            raise ConfigError(f"{path}: incomplete metrics for {(kind, epsilon, repeat)}")
        rows.append(SweepRow(kind, epsilon, repeat, 0,
                             wre, float(np.mean([wre[n] for n in METRIC_NAMES]))))
    repeats = max(row.repeat for row in rows) + 1 if rows else 0
    return tuple(rows), tuple(mechanisms), tuple(sorted(epsilons)), repeats
