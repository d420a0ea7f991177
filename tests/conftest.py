import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))  # wre_oracle import

from dpgb.schema import (
    Dimensions, ScaleMatrix, SparseHistogram, TripRecord, WeekDataset, user_histogram,
)


@pytest.fixture
def small_dims():
    return Dimensions(num_activities=2, num_regions=4)


@pytest.fixture
def rng():
    return np.random.default_rng(20240501)


def random_histogram(rng, dims, max_cells=8, magnitude=10.0):
    """Random sparse non-negative histogram for property sweeps."""
    n = int(rng.integers(0, max_cells + 1))
    cells = {}
    for _ in range(n):
        cell = (int(rng.integers(dims.num_activities)), int(rng.integers(3)),
                int(rng.integers(dims.num_regions)), int(rng.integers(3)))
        cells[cell] = float(rng.lognormal(0.0, 1.5) * magnitude)
    return SparseHistogram(dims, cells)


def raw_histogram(records, dims):
    """A user's unscaled aggregate: +1 trip, +distance, +duration per record."""
    return user_histogram(records, dims, ScaleMatrix.ones(dims.num_activities))


def random_records(rng, dims, n):
    return [
        TripRecord(
            region=int(rng.integers(dims.num_regions)),
            activity=int(rng.integers(dims.num_activities)),
            direction=int(rng.integers(3)),
            distance_km=float(rng.lognormal(1.0, 1.0)),
            duration_s=float(rng.lognormal(6.5, 0.8)),
        )
        for _ in range(n)
    ]


def random_dataset(rng, dims, num_users, max_records=12, week_id="test-week"):
    users = []
    for i in range(num_users):
        n = int(rng.integers(0, max_records + 1))
        users.append((f"u{i:04d}", tuple(random_records(rng, dims, n))))
    return WeekDataset(week_id, tuple(users))
