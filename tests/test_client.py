import math

import numpy as np
import pytest

from dpgb.client import client_work, fleet_contributions
from dpgb.schema import ConfigError, ScaleMatrix, SparseHistogram, TripRecord, WeekDataset, user_histogram
from conftest import random_dataset, random_records


def test_identity_scaling_no_clip_equals_user_histogram(small_dims, rng):
    records = random_records(rng, small_dims, 10)
    ones = ScaleMatrix.ones(small_dims.num_activities)
    contribution = client_work("u1", records, ones, math.inf, small_dims)
    assert contribution.vector.cells == user_histogram(records, small_dims).cells
    assert contribution.user_id == "u1"


def test_worked_example_scaling_then_clip(small_dims):
    # S(a, .) = (2, 5, 100) for activity 1; one trip: dist 10 km, dur 600 s
    entries = np.ones((2, 3))
    entries[1] = [2.0, 5.0, 100.0]
    scales = ScaleMatrix(entries)
    records = [TripRecord(region=0, activity=1, direction=2, distance_km=10.0, duration_s=600.0)]

    unclipped = client_work("u", records, scales, math.inf, small_dims).vector
    assert unclipped.get((1, 0, 0, 2)) == 0.5
    assert unclipped.get((1, 1, 0, 2)) == 2.0
    assert unclipped.get((1, 2, 0, 2)) == 6.0
    assert unclipped.l1_norm() == 8.5

    clipped = client_work("u", records, scales, 4.25, small_dims).vector
    assert clipped.get((1, 0, 0, 2)) == 0.25
    assert clipped.get((1, 1, 0, 2)) == 1.0
    assert clipped.get((1, 2, 0, 2)) == 3.0


def test_norm_bound_over_random_fleet(small_dims, rng):
    data = random_dataset(rng, small_dims, 1000)
    scales = ScaleMatrix(np.exp(rng.normal(0, 1, size=(small_dims.num_activities, 3))))
    clip = 5.0
    for contribution in fleet_contributions(data, scales, clip, small_dims):
        assert contribution.vector.l1_norm() <= clip * (1 + 1e-9)


def test_scaling_equivariance(small_dims, rng):
    # pre-clip scaled vector times S recovers the raw histogram cell-wise
    records = random_records(rng, small_dims, 20)
    scales = ScaleMatrix(np.exp(rng.normal(0, 2, size=(small_dims.num_activities, 3))))
    raw = user_histogram(records, small_dims)
    scaled = client_work("u", records, scales, math.inf, small_dims).vector
    assert set(scaled.cells) == set(raw.cells)
    for (a, m, r, d), value in scaled.cells.items():
        assert value * scales.factor(a, m) == pytest.approx(raw.get((a, m, r, d)), rel=1e-12)


def test_no_cells_outside_observed_combinations(small_dims, rng):
    records = random_records(rng, small_dims, 15)
    scales = ScaleMatrix.ones(small_dims.num_activities)
    vector = client_work("u", records, scales, 3.0, small_dims).vector
    observed = {(rec.activity, rec.region, rec.direction) for rec in records}
    for (a, _, r, d) in vector.cells:
        assert (a, r, d) in observed


def test_invalid_record_abort_then_skip(small_dims):
    # one policy for out-of-domain records, per user and fleet-wide: raise;
    # skipping them is left to the caller, which then gets the clean histogram
    bad = TripRecord(region=small_dims.num_regions, activity=0, direction=0,
                     distance_km=1.0, duration_s=1.0)
    good = TripRecord(region=0, activity=0, direction=0, distance_km=2.0, duration_s=3.0)
    ones = ScaleMatrix.ones(small_dims.num_activities)
    for clip in (math.inf, 1.0):
        with pytest.raises(ValueError):
            client_work("u", [good, bad], ones, clip, small_dims)
    with pytest.raises(ValueError):
        fleet_contributions(WeekDataset("w", (("u", (good, bad)),)), ones, 1.0, small_dims)
    kept = [rec for rec in (good, bad) if rec.region < small_dims.num_regions]
    vector = client_work("u", kept, ones, math.inf, small_dims).vector
    assert vector.cells == user_histogram([good], small_dims).cells


def test_invalid_clip_and_policy(small_dims):
    ones = ScaleMatrix.ones(small_dims.num_activities)
    for clip in (0.0, -1.0, math.nan):
        with pytest.raises(ConfigError):
            client_work("u", [], ones, clip, small_dims)
    with pytest.raises(ConfigError):
        client_work("u", [], ScaleMatrix.ones(small_dims.num_activities + 1), 1.0, small_dims)


def test_fleet_preserves_user_order(small_dims, rng):
    data = random_dataset(rng, small_dims, 5)
    ones = ScaleMatrix.ones(small_dims.num_activities)
    fleet = fleet_contributions(data, ones, 10.0, small_dims)
    assert [c.user_id for c in fleet] == [uid for uid, _ in data.users]
