"""Simulated on-device work.

Each client scales its trip values by the per-(activity, metric) factors,
accumulates them into a sparse vector, and clips the joint vector once to the
global L1 bound.  Clients never see epsilon; all noise is added server-side
after aggregation.
"""

from __future__ import annotations

from .dp_core import clip_l1
from .schema import Dimensions, ScaleMatrix, SparseHistogram, user_histogram


def client_work(records, scales: ScaleMatrix, clip: float, dims: Dimensions) -> SparseHistogram:
    """One user's scaled vector (see ``user_histogram``), clipped once to
    ``clip`` across the user's entire contribution.

    A scale matrix of the wrong size, a record outside ``dims`` and a clip
    bound that is not > 0 all raise.
    """
    return clip_l1(user_histogram(records, dims, scales), clip)
