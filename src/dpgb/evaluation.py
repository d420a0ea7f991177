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
from .mechanisms import PreparedRelease, finish_release, fit_clip, fit_scales, prepare_release
from .schema import (
    ConfigError,
    Dimensions,
    MECHANISM_KINDS,
    METRIC_NAMES,
    NUM_TRIPS,
    MechanismConfig,
    ScaleMatrix,
    WeekDataset,
    _second_half,
    _shared,
)

DEFAULT_MIN_DEVICES = 20   # desk-scale stand-in for the production floor of 2000 devices
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
            flat=tuple(flat[pick] for pick in picks),
            truth=tuple(totals[pick] for pick in picks),
            weights=tuple(weights[pick] for pick in picks),
            devices=tuple(devices[pick] for pick in picks),
        )


@dataclass(frozen=True, eq=False)
class EvalReport:
    """Per-metric weighted relative error plus, for metric m, the estimate
    ``estimates[m]`` and relative error ``errors[m]`` of each eligible cell
    of the scoring plan."""

    wre: dict[str, float]
    eligible: dict[str, int]
    suppressed_eligible: dict[str, int]
    estimates: tuple[np.ndarray, ...]
    errors: tuple[np.ndarray, ...]

    @property
    def overall(self) -> float:
        return float(np.mean([self.wre[name] for name in METRIC_NAMES]))

    @property
    def has_eligible_cells(self) -> bool:
        return any(self.eligible[name] > 0 for name in METRIC_NAMES)


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
    return EvalReport(wre, eligible, suppressed, tuple(estimates), tuple(errors))


# --- hyperparameter fitting ---------------------------------------------------

@dataclass(frozen=True)
class FittedHyperparameters:
    """Scale and clip choices fitted on proxy data at the 0.95 quantile."""

    scales: ScaleMatrix
    ams_clip: float
    joint_clip: float

    def config_for(self, kind: str, epsilon: float, tau: float, seed: int) -> MechanismConfig:
        if kind == "budget_split":
            clip: float | np.ndarray = self.scales.entries
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


def fit_hyperparameters(proxy: WeekDataset, dims: Dimensions) -> FittedHyperparameters:
    """Fit everything the three mechanisms need, on proxy data only.

    The per-slice clip grid for budget_split reuses the per-(activity, metric)
    norm quantiles, which is exactly what tuning each slice's clip separately
    means.
    """
    scales = fit_scales(proxy, dims)
    ones = ScaleMatrix.ones(dims.num_activities)
    return FittedHyperparameters(
        scales=scales,
        ams_clip=fit_clip(proxy, scales, dims),
        joint_clip=fit_clip(proxy, ones, dims),
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
    wre: dict[str, float]
    overall: float


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    mechanisms: tuple[str, ...]
    epsilons: tuple[float, ...]
    repeats: int
    min_devices: int
    fitted: FittedHyperparameters

    @property
    def operating_epsilon(self) -> float:
        """The swept epsilon nearest 2.0, the paper's operating point: the
        metric table and the fitted configs are both at this one."""
        return min(self.epsilons, key=lambda e: abs(e - 2.0))

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
) -> SweepResult:
    """Fit on the proxy, then release and score every (mechanism, eps, repeat).

    Passing the evaluation dataset itself as ``proxy`` is the caller's
    explicit unsafe-fit decision.  Sweep cells use independently derived
    seeds, so neither the order they run in nor the process can change any
    number.  The lists and settings are checked before any fitting starts.

    The sweep runs on two cores.  A forked child fits the scales and
    activity_metric_scaling's clip, then sums the pre-noise aggregate of
    every listed mechanism but joint_clipping, while this process fits the
    joint clip, builds the scoring plan, and prepares, releases and scores
    joint_clipping.  The child passes its numbers back in shared memory;
    this process then releases and scores the child's mechanisms, so every
    cell is released and scored here.  Without ``os.fork``, or if anything
    fails in either process, the whole sweep runs again in this process,
    so an error is the one-process sweep's.
    """
    epsilons, mechanisms = check_sweep_settings(epsilons, mechanisms, repeats, seed, tau,
                                                min_devices)

    def prepare(fitted: FittedHyperparameters, kind: str) -> PreparedRelease:
        return prepare_release(fitted.config_for(kind, epsilons[0], tau, seed), data, dims)

    def release_and_score(plan: ScoringPlan, prepared: PreparedRelease) -> list[SweepRow]:
        kind, rows = prepared.config.mechanism_kind, []
        for epsilon in epsilons:
            for repeat in range(repeats):
                result = finish_release(prepared, epsilon, tau,
                                        run_seed(seed, kind, epsilon, repeat))
                report = weighted_relative_error(plan, result.released)
                rows.append(SweepRow(kind, epsilon, repeat, dict(report.wre), report.overall))
        return rows

    def in_two_processes() -> tuple[FittedHyperparameters, list[SweepRow]]:
        ones = ScaleMatrix.ones(dims.num_activities)
        fit = _shared(ones.entries.size + 1, float)  # the scales, then their clip
        # the child's pre-noise aggregates: every mechanism the joint clip is not for
        sums = {kind: _shared(dims.total_cells, float)
                for kind in mechanisms if kind != "joint_clipping"}

        def fit_and_sum() -> None:
            scales = fit_scales(proxy, dims)
            fit[:-1] = scales.entries.reshape(-1)
            fit[-1] = fit_clip(proxy, scales, dims)
            half = FittedHyperparameters(scales, float(fit[-1]), math.nan)  # NaN: not its clip
            for kind, total in sums.items():
                total[:] = prepare(half, kind).pre_noise_dense

        with _second_half(fit_and_sum):
            joint_clip = fit_clip(proxy, ones, dims)
            plan = ScoringPlan.build(ground_truth(data, dims), min_devices)
            half = FittedHyperparameters(ones, math.nan, joint_clip)  # NaN: the child's clip
            rows = {kind: release_and_score(plan, prepare(half, kind))
                    for kind in mechanisms if kind not in sums}
        fitted = FittedHyperparameters(ScaleMatrix(fit[:-1].reshape(-1, 3)), float(fit[-1]),
                                       joint_clip)
        for kind, total in sums.items():
            rows[kind] = release_and_score(plan, PreparedRelease(
                fitted.config_for(kind, epsilons[0], tau, seed), dims, total))
        return fitted, [row for kind in mechanisms for row in rows[kind]]

    try:
        fitted, rows = in_two_processes()
    except Exception:  # no os.fork, or either process failed
        fitted = fit_hyperparameters(proxy, dims)
        plan = ScoringPlan.build(ground_truth(data, dims), min_devices)
        rows = [row for kind in mechanisms
                for row in release_and_score(plan, prepare(fitted, kind))]
    return SweepResult(tuple(rows), mechanisms, epsilons, repeats, min_devices, fitted)


def check_sweep_settings(epsilons, mechanisms, repeats: int, seed: int, tau: float,
                         min_devices: int) -> tuple[tuple[float, ...], tuple[str, ...]]:
    """The epsilon and mechanism lists as tuples, once every setting of a
    sweep is checked; ConfigError names the first bad one.  Needs no data,
    so a caller can check before it reads any."""
    if repeats < 1:
        raise ConfigError(f"repeats must be >= 1, got {repeats}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    if min_devices < 0:
        raise ConfigError(f"min_devices must be >= 0, got {min_devices}")
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
    return epsilons, mechanisms


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


def render_metric_table(result: SweepResult) -> str:
    """Plain-text per-metric breakdown at the operating epsilon, with the reference rows."""
    epsilon = result.operating_epsilon
    width = max(len(kind) for kind in result.mechanisms) + 2
    lines = [
        f"weighted relative error by metric (epsilon = {epsilon:g}, "
        f"{result.repeats} repeats, min_devices = {result.min_devices})",
        f"{'mechanism':<{width}}" + "".join(f"{name:>12}" for name in METRIC_NAMES),
    ]
    for kind in result.mechanisms:
        means = result.metric_means(kind, epsilon)
        lines.append(f"{kind:<{width}}" + "".join(f"{means[name]:>12.4f}" for name in METRIC_NAMES))
    lines.append(f"utility target: {TARGET_WRE}")
    lines.append("reference, production-scale proxy at epsilon = 2:")
    for kind, values in REFERENCE_WRE_EPS2.items():
        lines.append(
            f"{kind:<{width}}" + "".join(f"{v:>12.3f}" for v in values))
    return "\n".join(lines) + "\n"
