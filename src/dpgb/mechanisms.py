"""The three end-to-end release strategies behind one interface.

budget_split runs one Laplace release per (activity, metric) slice, each
clipped separately and each paying an equal share of the budget.
joint_clipping releases one global histogram with a single clip and the full
budget; its weakness is that the same absolute noise lands on small-count
cells and large-magnitude cells alike.  activity_metric_scaling normalizes
every (activity, metric) slice by a quantile of per-user slice norms before a
single joint clip, so one full-budget release gets noise proportional to each
slice's magnitude; joint_clipping is exactly its all-ones special case.

Every run is split into a deterministic prepare step (clip and aggregate,
depends only on data and clip/scale hyperparameters) and a finish step (noise,
descale, threshold, depends on epsilon, tau, and the seed), so a sweep over
budgets and seeds pays the aggregation cost once per mechanism.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .aggregation import noise_descale_threshold, secure_sum
from .client import client_work
from .dp_core import PrivacyLedger, clip_l1, exact_quantile
from .schema import (
    ConfigError,
    Dimensions,
    METRIC_NAMES,
    MechanismConfig,
    ScaleMatrix,
    SparseHistogram,
    WeekDataset,
    user_histogram,
)


@dataclass(frozen=True)
class ReleaseResult:
    """One private release plus its accounting.

    ``released`` is the dense vector in cell_index order; suppressed and
    clamped cells hold 0.
    """

    mechanism_kind: str
    released: np.ndarray
    total_epsilon: float
    config_echo: MechanismConfig
    seed: int
    suppressed_cells: int
    ledger: PrivacyLedger


@dataclass(frozen=True)
class PreparedRelease:
    """Clipped pre-noise aggregate, ready to be noised at any budget.

    ``slice_scales`` and ``noise_units`` have shape (A, 3), one entry per
    (activity, metric) slice.  ``slice_scales`` holds the descale factors S;
    ``noise_units`` holds the Laplace scale times epsilon (the clip bound for
    single-release mechanisms, clip * num_slices for budget_split), so the
    slice's noise scale at budget eps is noise_units / eps.
    ``charge_fractions`` lists the ledger charges as fractions of the total
    budget.
    """

    mechanism_kind: str
    dims: Dimensions
    pre_noise_dense: np.ndarray
    slice_scales: np.ndarray
    noise_units: np.ndarray
    charge_fractions: tuple[tuple[str, float], ...]
    clip_echo: float | np.ndarray
    scales_echo: ScaleMatrix


def prepare_activity_metric_scaling(
    data: WeekDataset, scales: ScaleMatrix, clip: float, dims: Dimensions,
    *, kind: str = "activity_metric_scaling",
) -> PreparedRelease:
    if scales.num_activities != dims.num_activities:
        raise ConfigError("scale matrix does not match dimensions")
    return PreparedRelease(
        mechanism_kind=kind,
        dims=dims,
        pre_noise_dense=secure_sum(
            (client_work(records, scales, clip, dims) for _, records in data.users), dims),
        slice_scales=scales.entries,
        noise_units=np.full(scales.entries.shape, float(clip)),
        charge_fractions=(("laplace_noise", 1.0),),
        clip_echo=float(clip),
        scales_echo=scales,
    )


def prepare_joint_clipping(data: WeekDataset, clip: float, dims: Dimensions) -> PreparedRelease:
    return prepare_activity_metric_scaling(
        data, ScaleMatrix.ones(dims.num_activities), clip, dims, kind="joint_clipping")


def _clip_slices(hist: SparseHistogram, clips: list[list[float]]) -> SparseHistogram:
    """Clip each (activity, metric) slice of one user's vector to its own bound."""
    slices: dict[tuple[int, int], dict] = {}
    for cell, value in hist.cells.items():
        slices.setdefault(cell[:2], {})[cell] = value
    merged: dict = {}
    for (a, m), cells in slices.items():
        merged.update(clip_l1(SparseHistogram(hist.dims, cells), clips[a][m]).cells)
    return SparseHistogram(hist.dims, merged)


def prepare_budget_split(data: WeekDataset, clips, dims: Dimensions) -> PreparedRelease:
    """Per-(activity, metric) slices, each clipped to its own bound.

    The split count generalizes to num_activities * 3; each slice's noise
    scale at budget eps is clips(a, m) * split_count / eps.  Every cell
    belongs to one slice, so a user's clipped slices merge into one vector.
    """
    clips = np.asarray(clips, dtype=float)
    if clips.shape != (dims.num_activities, 3):
        raise ConfigError(
            f"clip grid must have shape ({dims.num_activities}, 3), got {clips.shape}")
    if not np.all(np.isfinite(clips)) or not np.all(clips > 0):
        raise ConfigError("clip grid entries must be finite and strictly positive")

    split_count = dims.num_activities * 3
    ones = ScaleMatrix.ones(dims.num_activities)
    bounds = clips.tolist()
    charges = tuple(
        (f"slice_a{a}_{METRIC_NAMES[m]}", 1.0 / split_count)
        for a in range(dims.num_activities) for m in range(3)
    )
    return PreparedRelease(
        mechanism_kind="budget_split",
        dims=dims,
        pre_noise_dense=secure_sum(
            (_clip_slices(user_histogram(records, dims, ones), bounds)
             for _, records in data.users), dims),
        slice_scales=ones.entries,
        noise_units=clips * split_count,
        charge_fractions=charges,
        clip_echo=clips,
        scales_echo=ones,
    )


def finish_release(
    prepared: PreparedRelease,
    epsilon: float,
    tau: float,
    seed: int,
    *,
    test_mode: bool = False,
) -> ReleaseResult:
    """Noise, descale, and threshold a prepared aggregate at one budget."""
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ConfigError(f"epsilon must be finite and > 0, got {epsilon}")
    ledger = PrivacyLedger(budget=math.inf if test_mode else epsilon)
    for label, fraction in prepared.charge_fractions:
        ledger.charge(label, math.inf if test_mode else fraction * epsilon)
    released, suppressed = noise_descale_threshold(
        prepared.pre_noise_dense,
        prepared.slice_scales,
        prepared.noise_units / epsilon,
        tau,
        seed,
        test_mode=test_mode,
    )
    config = MechanismConfig(
        epsilon=epsilon,
        mechanism_kind=prepared.mechanism_kind,
        clip=prepared.clip_echo,
        scales=prepared.scales_echo,
        threshold_tau=tau,
        rng_seed=seed,
    )
    return ReleaseResult(
        mechanism_kind=prepared.mechanism_kind,
        released=released,
        total_epsilon=ledger.total(),
        config_echo=config,
        seed=seed,
        suppressed_cells=suppressed,
        ledger=ledger,
    )


def prepare_release(config: MechanismConfig, data: WeekDataset, dims: Dimensions) -> PreparedRelease:
    if config.mechanism_kind == "budget_split":
        return prepare_budget_split(data, config.clip, dims)
    if config.mechanism_kind == "joint_clipping":
        return prepare_joint_clipping(data, config.clip, dims)
    return prepare_activity_metric_scaling(data, config.scales, config.clip, dims)


def run_release(
    config: MechanismConfig, data: WeekDataset, dims: Dimensions, *, test_mode: bool = False,
) -> ReleaseResult:
    """Run the mechanism a config fully describes."""
    return finish_release(
        prepare_release(config, data, dims),
        config.epsilon, config.threshold_tau, config.rng_seed, test_mode=test_mode)


def fit_scales(data: WeekDataset, dims: Dimensions, q: float = 0.95) -> ScaleMatrix:
    """Per-(activity, metric) quantile of per-user slice L1 norms.

    Users with a zero slice are excluded from that slice's quantile (a user
    who never cycles should not drag the cycling scale toward zero); slices
    nobody populates default to 1 so descaling stays defined.
    """
    if not 0 < q < 1:
        raise ConfigError(f"q must be in (0, 1), got {q}")
    norms: dict[tuple[int, int], list[float]] = {}
    ones = ScaleMatrix.ones(dims.num_activities)
    for _, records in data.users:
        hist = user_histogram(records, dims, ones)
        per_slice: dict[tuple[int, int], float] = {}
        for (a, m, _, _), value in hist.cells.items():
            per_slice[(a, m)] = per_slice.get((a, m), 0.0) + abs(value)
        for key, norm in per_slice.items():
            norms.setdefault(key, []).append(norm)
    entries = np.ones((dims.num_activities, 3))
    for (a, m), values in norms.items():
        entries[a, m] = exact_quantile(values, q)
    return ScaleMatrix(entries)


def fit_clip(data: WeekDataset, scales: ScaleMatrix, dims: Dimensions, q: float = 0.95) -> float:
    """Quantile of per-user scaled pre-clip norms ||v_i||_1."""
    if not data.users:
        raise ConfigError("fit_clip needs a non-empty dataset")
    norms = [user_histogram(records, dims, scales).l1_norm() for _, records in data.users]
    return exact_quantile(norms, q)


def manifest_line(result: ReleaseResult) -> str:
    """One-line run summary: mechanism,epsilon,clip,seed,total_cells,suppressed."""
    clip = result.config_echo.clip
    clip_repr = "grid" if isinstance(clip, np.ndarray) else repr(clip)
    return ",".join([
        result.mechanism_kind,
        repr(result.config_echo.epsilon),
        clip_repr,
        str(result.seed),
        str(result.released.size),
        str(result.suppressed_cells),
    ])
