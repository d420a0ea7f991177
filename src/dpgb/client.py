"""Simulated on-device work.

Each client scales its trip values by the per-(activity, metric) factors,
accumulates them into a sparse vector, and clips that vector to the L1
bound.  Clients never see epsilon; all noise is added server-side after
aggregation.  The fleet is simulated block by block: each block holds the
vectors of whole users as rows (see ``user_cells``).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .dp_core import clip_l1
from .schema import ConfigError, Dimensions, ScaleMatrix, UserCells, WeekDataset, user_cells


def client_work(data: WeekDataset, scales: ScaleMatrix, clip, dims: Dimensions
                ) -> Iterator[UserCells]:
    """Every user's scaled vector, clipped, in blocks of whole users.

    A scalar ``clip`` bounds each user's entire vector once.  An (A, 3)
    grid bounds each (activity, metric) slice of it separately, by its own
    entry.  A scale matrix or grid of the wrong size, a record outside
    ``dims`` and a bound that is not finite and > 0 all raise, the first
    two and the last before any user is read.
    """
    bounds = np.asarray(clip, dtype=float)
    if bounds.ndim and bounds.shape != scales.entries.shape:
        raise ConfigError(f"clip grid must have shape {scales.entries.shape}, got {bounds.shape}")
    if not np.all(np.isfinite(bounds) & (bounds > 0)):
        raise ConfigError(f"clip bounds must be finite and > 0, got {clip}")
    return _clipped(user_cells(data, dims, scales), bounds, dims.num_regions * 3)


def _clipped(blocks, bounds: np.ndarray, slice_cells: int) -> Iterator[UserCells]:
    for rows in blocks:
        starts, run_bounds = rows.starts, bounds
        if bounds.ndim:  # one run per (user, slice), as rows run by user, then cell
            slices = rows.cell // slice_cells
            heads = np.flatnonzero(np.diff(rows.user * bounds.size + slices, prepend=-1))
            starts = np.append(heads, rows.cell.size)
            run_bounds = bounds.reshape(-1)[slices[heads]]
        yield rows._replace(value=clip_l1(rows.value, starts, run_bounds))
