"""Simulated on-device work.

Each client scales its trip values by the per-(activity, metric) factors,
accumulates them into a sparse vector, and clips the joint vector once to the
global L1 bound.  Clients never see epsilon; all noise is added server-side
after aggregation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dp_core import clip_l1
from .schema import (
    Cell,
    ConfigError,
    Dimensions,
    DISTANCE,
    DURATION,
    NUM_TRIPS,
    ScaleMatrix,
    SparseHistogram,
    WeekDataset,
)


@dataclass(frozen=True)
class ClientContribution:
    """One user's scaled, clipped vector; L1 norm is at most the clip bound."""

    user_id: str
    vector: SparseHistogram


def client_work(
    user_id: str,
    records,
    scales: ScaleMatrix,
    clip: float,
    dims: Dimensions,
) -> ClientContribution:
    """Build the scaled per-user vector and clip it to ``clip``.

    Per record, 1/S(a, num_trips), distance/S(a, distance) and
    duration/S(a, duration) accumulate into the record's cells; the joint
    vector is then clipped once across the user's entire contribution.
    ``clip`` may be math.inf as an explicit no-clip sentinel for tests.
    A record outside ``dims`` raises ValueError, so every mechanism fails
    the same way on out-of-domain input.
    """
    if math.isnan(clip) or clip <= 0:
        raise ConfigError(f"clip bound must be > 0, got {clip}")
    if scales.num_activities != dims.num_activities:
        raise ConfigError("scale matrix does not match dimensions")

    cells: dict[Cell, float] = {}
    for rec in records:
        rec.validate(dims)
        a, r, d = rec.activity, rec.region, rec.direction
        for metric, value in (
            (NUM_TRIPS, 1.0),
            (DISTANCE, rec.distance_km),
            (DURATION, rec.duration_s),
        ):
            key = (a, metric, r, d)
            cells[key] = cells.get(key, 0.0) + value / scales.factor(a, metric)

    vector = SparseHistogram(dims, {c: v for c, v in cells.items() if v != 0.0})
    if math.isfinite(clip):
        vector = clip_l1(vector, clip)
    return ClientContribution(user_id, vector)


def fleet_contributions(
    data: WeekDataset,
    scales: ScaleMatrix,
    clip: float,
    dims: Dimensions,
) -> list[ClientContribution]:
    """Run client_work for every user, in dataset (user-id) order."""
    return [client_work(uid, records, scales, clip, dims) for uid, records in data.users]
