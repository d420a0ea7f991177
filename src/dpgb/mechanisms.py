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

from dataclasses import dataclass, replace
from typing import NamedTuple

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

FIT_QUANTILE = 0.95  # of the per-user norms that fit_scales and fit_clip take


@dataclass(frozen=True)
class ReleaseResult:
    """One private release plus its accounting.

    ``released`` is the dense vector in cell_index order; suppressed and
    clamped cells hold 0.  ``config_echo`` is the config the release ran
    with, budget and seed included.
    """

    released: np.ndarray
    config_echo: MechanismConfig
    suppressed_cells: int
    ledger: PrivacyLedger


@dataclass(frozen=True)
class PreparedRelease:
    """Clipped pre-noise aggregate of one config, ready to be noised at any
    budget and seed."""

    config: MechanismConfig
    dims: Dimensions
    pre_noise_dense: np.ndarray


class SubRelease(NamedTuple):
    """One Laplace release of a mechanism, one row of its calibration table.

    ``slices`` lists the (activity, metric) slices it noises as flat indices
    a * 3 + m; ``sensitivity`` is its L1 sensitivity in the scaled domain; it
    spends 1/``k`` of the budget.  Its noise scale at budget eps is
    sensitivity * k / eps, and its ledger charge (1 / k) * eps.
    """

    label: str
    slices: tuple[int, ...]
    sensitivity: float
    k: int


def calibration_table(config: MechanismConfig) -> tuple[SubRelease, ...]:
    """The sub-releases of a config, which noise and charge come from.

    joint_clipping and activity_metric_scaling make one release of every
    slice at the full budget, sensitive to the clip.  budget_split makes one
    release per slice, sensitive to that slice's grid entry, each at an
    equal share of the budget.
    """
    num_slices = config.scales.entries.size
    if config.mechanism_kind != "budget_split":
        return (SubRelease("laplace_noise", tuple(range(num_slices)), config.clip, 1),)
    return tuple(
        SubRelease(f"slice_a{s // 3}_{METRIC_NAMES[s % 3]}", (s,), clip, num_slices)
        for s, clip in enumerate(config.clip.reshape(-1).tolist()))


def slice_noise_scales(table, num_slices: int, epsilon: float) -> np.ndarray:
    """The Laplace scale b of each slice under ``table``, in flat slice order.

    Raises unless the rows cover every one of ``num_slices`` slices exactly
    once.
    """
    covered = np.array([s for row in table for s in row.slices], dtype=np.int64)
    if not np.array_equal(np.sort(covered), np.arange(num_slices)):
        raise ConfigError(f"calibration table must cover each of {num_slices} slices "
                          f"exactly once, got {sorted(covered.tolist())}")
    per_row = (np.array([row.sensitivity for row in table])
               * np.array([row.k for row in table]) / epsilon)
    b = np.empty(num_slices)
    b[covered] = np.repeat(per_row, [len(row.slices) for row in table])
    return b


def prepare_release(config: MechanismConfig, data: WeekDataset, dims: Dimensions) -> PreparedRelease:
    """Every user's scaled and clipped vector, summed; the step of a run that
    depends only on the data, the scales and the clip."""
    return PreparedRelease(
        config, dims, secure_sum(client_work(data, config.scales, config.clip, dims), dims))


def finish_release(
    prepared: PreparedRelease,
    epsilon: float,
    tau: float,
    seed: int,
    *,
    in_place: bool = False,
) -> ReleaseResult:
    """Noise, descale, and threshold a prepared aggregate at one budget.

    Every slice's noise scale and every ledger charge come from the rows of
    the config's calibration table.  A tau or seed the config rejects, or a
    table that does not cover every slice exactly once, raises before any
    noise is drawn.  ``in_place`` writes the release over
    ``prepared.pre_noise_dense`` and uses the aggregate up; without it the
    aggregate stays intact for another budget or seed.
    """
    config = replace(prepared.config, epsilon=epsilon, threshold_tau=tau, rng_seed=seed)
    table = calibration_table(config)
    b = slice_noise_scales(table, prepared.dims.num_activities * 3, epsilon)
    ledger = PrivacyLedger(budget=epsilon)
    for row in table:
        ledger.charge(row.label, (1.0 / row.k) * epsilon)
    released, suppressed = noise_descale_threshold(
        prepared.pre_noise_dense, config.scales.entries, b, tau, seed, in_place=in_place)
    return ReleaseResult(released, config, suppressed, ledger)


def fit_scales(data: WeekDataset, dims: Dimensions) -> ScaleMatrix:
    """Per-(activity, metric) ``FIT_QUANTILE`` of per-user slice L1 norms.

    Users with a zero slice are excluded from that slice's quantile (a user
    who never cycles should not drag the cycling scale toward zero); slices
    nobody populates default to 1 so descaling stays defined.  A slice norm
    adds the user's cells in the order of their first addend.
    """
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
    for s in np.flatnonzero(np.bincount(slices, minlength=num_slices)).tolist():
        entries[s] = exact_quantile(norms[slices == s], FIT_QUANTILE)
    return ScaleMatrix(entries.reshape(-1, 3))


def fit_clip(data: WeekDataset, scales: ScaleMatrix, dims: Dimensions) -> float:
    """``FIT_QUANTILE`` of per-user scaled pre-clip norms ||v_i||_1, users
    with no records included."""
    if not data.num_users:
        raise ConfigError("fit_clip needs a non-empty dataset")
    return exact_quantile(np.concatenate(
        [l1_norms(rows.value, rows.starts) for rows in user_cells(data, dims, scales)]),
        FIT_QUANTILE)


def manifest_line(result: ReleaseResult) -> str:
    """One-line run summary: mechanism,epsilon,clip,seed,total_cells,suppressed."""
    clip = result.config_echo.clip
    clip_repr = "grid" if isinstance(clip, np.ndarray) else repr(clip)
    return ",".join([
        result.config_echo.mechanism_kind,
        repr(result.config_echo.epsilon),
        clip_repr,
        str(result.config_echo.rng_seed),
        str(result.released.size),
        str(result.suppressed_cells),
    ])
