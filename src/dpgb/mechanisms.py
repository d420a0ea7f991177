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
from .dp_core import PrivacyLedger, exact_quantile, l1_norms
from .schema import (
    ConfigError,
    Dimensions,
    METRIC_NAMES,
    MechanismConfig,
    ScaleMatrix,
    WeekDataset,
    user_cells,
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
    return PreparedRelease(
        mechanism_kind=kind,
        dims=dims,
        pre_noise_dense=secure_sum(client_work(data, scales, clip, dims), dims),
        slice_scales=scales.entries,
        noise_units=np.full(scales.entries.shape, float(clip)),
        charge_fractions=(("laplace_noise", 1.0),),
        clip_echo=float(clip),
        scales_echo=scales,
    )


def prepare_joint_clipping(data: WeekDataset, clip: float, dims: Dimensions) -> PreparedRelease:
    return prepare_activity_metric_scaling(
        data, ScaleMatrix.ones(dims.num_activities), clip, dims, kind="joint_clipping")


def prepare_budget_split(data: WeekDataset, clips, dims: Dimensions) -> PreparedRelease:
    """Per-(activity, metric) slices, each clipped to its own bound.

    The split count generalizes to num_activities * 3; each slice's noise
    scale at budget eps is clips(a, m) * split_count / eps.  Every cell
    belongs to one slice, so a user's clipped slices form one vector.
    """
    clips = np.asarray(clips, dtype=float)
    split_count = dims.num_activities * 3
    ones = ScaleMatrix.ones(dims.num_activities)
    charges = tuple(
        (f"slice_a{a}_{METRIC_NAMES[m]}", 1.0 / split_count)
        for a in range(dims.num_activities) for m in range(3)
    )
    return PreparedRelease(
        mechanism_kind="budget_split",
        dims=dims,
        pre_noise_dense=secure_sum(client_work(data, ones, clips, dims), dims),
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
    nobody populates default to 1 so descaling stays defined.  A slice norm
    adds the user's cells in the order of their first addend.
    """
    if not 0 < q < 1:
        raise ConfigError(f"q must be in (0, 1), got {q}")
    num_slices = dims.num_activities * 3
    slices, norms = [np.zeros(0, dtype=np.int64)], [np.zeros(0)]
    for rows in user_cells(data, dims, ScaleMatrix.ones(dims.num_activities)):
        order = np.argsort(rows.first, kind="stable")
        key = rows.user[order] * num_slices + rows.cell[order] // (dims.num_regions * 3)
        keys, inverse = np.unique(key, return_inverse=True)
        slices.append(keys % num_slices)
        norms.append(np.bincount(inverse, weights=np.abs(rows.value[order])))
    slices, norms = np.concatenate(slices), np.concatenate(norms)
    entries = np.ones(num_slices)
    for s in np.unique(slices).tolist():
        entries[s] = exact_quantile(norms[slices == s], q)
    return ScaleMatrix(entries.reshape(-1, 3))


def fit_clip(data: WeekDataset, scales: ScaleMatrix, dims: Dimensions, q: float = 0.95) -> float:
    """Quantile of per-user scaled pre-clip norms ||v_i||_1, users with no
    records included."""
    if not data.num_users:
        raise ConfigError("fit_clip needs a non-empty dataset")
    return exact_quantile(np.concatenate(
        [l1_norms(rows.value, rows.starts) for rows in user_cells(data, dims, scales)]), q)


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
