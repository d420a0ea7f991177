"""Server-side aggregation and post-processing.

Simulated secure summation (plain summation behind an interface, standing in
for the cryptographic private aggregation service), dense Laplace noise over
the whole cell domain, descaling back to original units, and the
threshold-and-clamp post-process that discards cells dominated by noise.

Raw per-user data and the pre-noise aggregate exist only inside a run; a
release carries only the noised, descaled and thresholded vector.
"""

from __future__ import annotations

import math

import numpy as np

from .dp_core import ConfigError, PrivacyLedger, dense_laplace_noise
from .schema import Dimensions


def secure_sum(blocks, dims: Dimensions) -> np.ndarray:
    """Cell-wise sum of per-user vectors, in user order.

    ``blocks`` yields the vectors as ``cell`` and ``value`` rows, users in
    order (see ``client_work``); each row is added into the total in turn,
    so every cell sums its users left to right whatever the block size.
    Returns the dense pre-noise vector in cell_index order.  Stands in for
    cryptographic secure aggregation: everything downstream of this call
    sees only the aggregate, never an individual vector.  ``blocks`` may be
    a generator, so no more than one block of vectors need exist at a time.
    """
    total = np.zeros(dims.total_cells)
    for rows in blocks:
        np.add.at(total, rows.cell, rows.value)
    return total


# cells per block of slices the noise pass holds at once
_NOISE_BLOCK_CELLS = 1 << 20


def noise_descale_threshold(
    pre_noise_dense: np.ndarray,
    slice_scales: np.ndarray,
    slice_noise_b: np.ndarray,
    tau: float,
    seed: int,
    *,
    test_mode: bool = False,
) -> tuple[np.ndarray, int]:
    """Server tail: dense noise, descale, threshold, clamp.

    ``slice_scales`` and ``slice_noise_b`` hold one descale factor S and one
    Laplace scale b per (activity, metric) slice, shape (A, 3).  The flat
    vector is viewed as (A * 3, R * 3), one row per slice, and noised in
    blocks of whole rows so that only the output is domain-sized.  Noise is
    one seeded stream over the full domain in flat cell order, whatever the
    block size.  A cell is suppressed when its descaled value falls below
    tau * b * S; surviving negatives are clamped to zero (a no-op whenever
    tau >= 0, kept for safety).

    Returns (released_dense, suppressed_count) where suppressed counts cells
    with a nonzero descaled value that failed the threshold.
    """
    if not (math.isfinite(tau) and tau >= 0):
        raise ConfigError(f"threshold_tau must be finite and >= 0, got {tau}")
    per_slice = pre_noise_dense.reshape(slice_scales.size, -1)
    b = slice_noise_b.reshape(-1, 1)
    scales = slice_scales.reshape(-1, 1)
    threshold = tau * b * scales
    released = np.empty_like(per_slice)
    rng = np.random.default_rng(seed)
    rows = max(1, _NOISE_BLOCK_CELLS // per_slice.shape[1])
    suppressed = 0
    for start in range(0, per_slice.shape[0], rows):
        block = slice(start, start + rows)
        if test_mode:
            descaled = per_slice[block] + 0.0
        else:
            descaled = dense_laplace_noise(b[block], rng, per_slice[block].shape)
            descaled += per_slice[block]
        descaled *= scales[block]
        keep = descaled >= threshold[block]
        suppressed += int(np.count_nonzero(~keep & (descaled != 0.0)))
        np.maximum(descaled, 0.0, out=released[block])
        released[block][~keep] = 0.0
    return released.reshape(-1), suppressed


def write_ledger(path, ledger: PrivacyLedger) -> None:
    """Text summary: one label,epsilon line per charge plus the total."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(ledger.summary() + "\n")
