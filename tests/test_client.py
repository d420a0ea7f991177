import math

import numpy as np
import pytest

from dpgb.client import client_work
from dpgb.dp_core import clip_l1
from dpgb.mechanisms import (
    prepare_activity_metric_scaling,
    prepare_budget_split,
    prepare_joint_clipping,
)
from dpgb.schema import ConfigError, ScaleMatrix, SparseHistogram, TripRecord, WeekDataset, user_histogram
from conftest import random_dataset, random_records, raw_histogram


def test_identity_scaling_no_clip_equals_user_histogram(small_dims, rng):
    records = random_records(rng, small_dims, 10)
    ones = ScaleMatrix.ones(small_dims.num_activities)
    raw = raw_histogram(records, small_dims)
    assert client_work(records, ones, raw.l1_norm() + 1.0, small_dims).cells == raw.cells


def test_worked_example_scaling_then_clip(small_dims):
    # S(a, .) = (2, 5, 100) for activity 1; one trip: dist 10 km, dur 600 s
    entries = np.ones((2, 3))
    entries[1] = [2.0, 5.0, 100.0]
    scales = ScaleMatrix(entries)
    records = [TripRecord(region=0, activity=1, direction=2, distance_km=10.0, duration_s=600.0)]

    unclipped = user_histogram(records, small_dims, scales)
    assert unclipped.get((1, 0, 0, 2)) == 0.5
    assert unclipped.get((1, 1, 0, 2)) == 2.0
    assert unclipped.get((1, 2, 0, 2)) == 6.0
    assert unclipped.l1_norm() == 8.5

    clipped = client_work(records, scales, 4.25, small_dims)
    assert clipped.get((1, 0, 0, 2)) == 0.25
    assert clipped.get((1, 1, 0, 2)) == 1.0
    assert clipped.get((1, 2, 0, 2)) == 3.0


def test_norm_bound_over_random_fleet(small_dims, rng):
    data = random_dataset(rng, small_dims, 1000)
    scales = ScaleMatrix(np.exp(rng.normal(0, 1, size=(small_dims.num_activities, 3))))
    clip = 5.0
    for _, records in data.users:
        assert client_work(records, scales, clip, small_dims).l1_norm() <= clip * (1 + 1e-9)


def test_scaling_equivariance(small_dims, rng):
    # pre-clip scaled vector times S recovers the raw histogram cell-wise
    records = random_records(rng, small_dims, 20)
    scales = ScaleMatrix(np.exp(rng.normal(0, 2, size=(small_dims.num_activities, 3))))
    raw = raw_histogram(records, small_dims)
    scaled = user_histogram(records, small_dims, scales)
    assert set(scaled.cells) == set(raw.cells)
    for (a, m, r, d), value in scaled.cells.items():
        assert value * scales.factor(a, m) == pytest.approx(raw.get((a, m, r, d)), rel=1e-12)


def test_no_cells_outside_observed_combinations(small_dims, rng):
    records = random_records(rng, small_dims, 15)
    scales = ScaleMatrix.ones(small_dims.num_activities)
    vector = client_work(records, scales, 3.0, small_dims)
    observed = {(rec.activity, rec.region, rec.direction) for rec in records}
    for (a, _, r, d) in vector.cells:
        assert (a, r, d) in observed


def test_invalid_record_abort_then_skip(small_dims):
    # one policy for out-of-domain records, per user and in the prepare step:
    # raise; skipping them is left to the caller, which then gets the clean
    # histogram
    bad = TripRecord(region=small_dims.num_regions, activity=0, direction=0,
                     distance_km=1.0, duration_s=1.0)
    good = TripRecord(region=0, activity=0, direction=0, distance_km=2.0, duration_s=3.0)
    ones = ScaleMatrix.ones(small_dims.num_activities)
    with pytest.raises(ValueError):
        client_work([good, bad], ones, 1.0, small_dims)
    with pytest.raises(ValueError):
        prepare_joint_clipping(WeekDataset("w", (("u", (good, bad)),)), 1.0, small_dims)
    kept = [rec for rec in (good, bad) if rec.region < small_dims.num_regions]
    vector = client_work(kept, ones, 100.0, small_dims)
    assert vector.cells == raw_histogram([good], small_dims).cells


def test_invalid_clip_and_policy(small_dims):
    ones = ScaleMatrix.ones(small_dims.num_activities)
    for clip in (0.0, -1.0, math.nan):
        with pytest.raises(ConfigError):
            client_work([], ones, clip, small_dims)
    with pytest.raises(ConfigError):
        client_work([], ScaleMatrix.ones(small_dims.num_activities + 1), 1.0, small_dims)


def _user_order_sum(vectors, dims):
    total = np.zeros(dims.total_cells)
    for vec in vectors:
        for (a, m, r, d), value in vec.cells.items():
            total[dims.cell_index(a, m, r, d)] += value
    return total


def _slice_clipped(records, clips, dims):
    slices = {}
    for cell, value in raw_histogram(records, dims).cells.items():
        slices.setdefault(cell[:2], {})[cell] = value
    merged = {}
    for (a, m), cells in slices.items():
        merged.update(clip_l1(SparseHistogram(dims, cells), float(clips[a, m])).cells)
    return SparseHistogram(dims, merged)


def test_fleet_preserves_user_order(small_dims, rng):
    # every mechanism's pre-noise aggregate is the left-to-right sum, in
    # dataset order, of each user's clipped vector, bit for bit
    data = random_dataset(rng, small_dims, 300)
    scales = ScaleMatrix(np.exp(rng.normal(0, 1, size=(small_dims.num_activities, 3))))
    ones = ScaleMatrix.ones(small_dims.num_activities)
    clips = np.exp(rng.normal(1, 1, size=(small_dims.num_activities, 3)))
    cases = [
        (prepare_activity_metric_scaling(data, scales, 4.0, small_dims),
         [client_work(records, scales, 4.0, small_dims) for _, records in data.users]),
        (prepare_joint_clipping(data, 30.0, small_dims),
         [client_work(records, ones, 30.0, small_dims) for _, records in data.users]),
        (prepare_budget_split(data, clips, small_dims),
         [_slice_clipped(records, clips, small_dims) for _, records in data.users]),
    ]
    for prepared, vectors in cases:
        expected = _user_order_sum(vectors, small_dims)
        assert np.array_equal(prepared.pre_noise_dense, expected), prepared.mechanism_kind
        # the data is rich enough that another order changes some bits
        assert not np.array_equal(_user_order_sum(vectors[::-1], small_dims), expected)
