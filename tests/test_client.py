import math
import tracemalloc

import numpy as np
import pytest

from dpgb import schema
from dpgb.aggregation import secure_sum
from dpgb.client import client_work
from dpgb.datagen import GeneratorSpec, default_profiles, generate, ground_truth
from dpgb.dp_core import l1_norms
from dpgb.schema import ConfigError, Dimensions, ScaleMatrix
from conftest import one_user, prepare, random_dataset, random_records, raw_histogram
from sparse_reference import (
    SparseHistogram,
    TripRecord,
    block_histograms,
    clip_l1,
    clip_slices,
    make_dataset,
    user_histogram,
    user_order_sum,
    users_of,
)


def clipped(records, scales, clip, dims):
    """The one user's vector as client_work leaves it."""
    vectors = block_histograms(client_work(one_user(records), scales, clip, dims), dims)
    return vectors.get(0, SparseHistogram.empty(dims))


def test_identity_scaling_no_clip_equals_user_histogram(small_dims, rng):
    records = random_records(rng, small_dims, 10)
    ones = ScaleMatrix.ones(small_dims.num_activities)
    raw = raw_histogram(records, small_dims)
    assert clipped(records, ones, raw.l1_norm() + 1.0, small_dims).cells == raw.cells


def test_worked_example_scaling_then_clip(small_dims):
    # S(a, .) = (2, 5, 100) for activity 1; one trip: dist 10 km, dur 600 s
    entries = np.ones((2, 3))
    entries[1] = [2.0, 5.0, 100.0]
    scales = ScaleMatrix(entries)
    records = [TripRecord(region=0, activity=1, direction=2, distance_km=10.0, duration_s=600.0)]

    unclipped = clipped(records, scales, 100.0, small_dims)
    assert unclipped.get((1, 0, 0, 2)) == 0.5
    assert unclipped.get((1, 1, 0, 2)) == 2.0
    assert unclipped.get((1, 2, 0, 2)) == 6.0
    assert unclipped.l1_norm() == 8.5

    clipped_vector = clipped(records, scales, 4.25, small_dims)
    assert clipped_vector.get((1, 0, 0, 2)) == 0.25
    assert clipped_vector.get((1, 1, 0, 2)) == 1.0
    assert clipped_vector.get((1, 2, 0, 2)) == 3.0


def test_norm_bound_over_random_fleet(small_dims, rng, monkeypatch):
    monkeypatch.setattr(schema, "_BLOCK_RECORDS", 64)  # many blocks
    data = random_dataset(rng, small_dims, 1000)
    scales = ScaleMatrix(np.exp(rng.normal(0, 1, size=(small_dims.num_activities, 3))))
    clip = 5.0
    blocks = 0
    for rows in client_work(data, scales, clip, small_dims):
        assert np.all(l1_norms(rows.value, rows.starts) <= clip * (1 + 1e-9))
        blocks += 1
    assert blocks > 10
    vectors = block_histograms(client_work(data, scales, clip, small_dims), small_dims)
    assert len(vectors) == sum(1 for _, recs in users_of(data) if recs)


def test_scaling_equivariance(small_dims, rng):
    # pre-clip scaled vector times S recovers the raw histogram cell-wise
    records = random_records(rng, small_dims, 20)
    scales = ScaleMatrix(np.exp(rng.normal(0, 2, size=(small_dims.num_activities, 3))))
    raw = raw_histogram(records, small_dims)
    scaled = clipped(records, scales, 1e300, small_dims)
    assert set(scaled.cells) == set(raw.cells)
    for (a, m, r, d), value in scaled.cells.items():
        assert value * scales.entries[a, m] == pytest.approx(raw.get((a, m, r, d)), rel=1e-12)


def test_no_cells_outside_observed_combinations(small_dims, rng):
    records = random_records(rng, small_dims, 15)
    scales = ScaleMatrix.ones(small_dims.num_activities)
    vector = clipped(records, scales, 3.0, small_dims)
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
        clipped([good, bad], ones, 1.0, small_dims)
    with pytest.raises(ValueError):
        prepare("joint_clipping", make_dataset([("u", (good, bad))]), 1.0, small_dims)
    kept = [rec for rec in (good, bad) if rec.region < small_dims.num_regions]
    vector = clipped(kept, ones, 100.0, small_dims)
    assert vector.cells == raw_histogram([good], small_dims).cells


def test_invalid_clip_and_policy(small_dims):
    # checked before any user is read, also for a dataset with no users
    ones = ScaleMatrix.ones(small_dims.num_activities)
    empty = make_dataset([])
    for clip in (0.0, -1.0, math.nan):
        with pytest.raises(ConfigError):
            client_work(empty, ones, clip, small_dims)
        with pytest.raises(ConfigError):
            client_work(empty, ones, np.full((small_dims.num_activities, 3), clip), small_dims)
    with pytest.raises(ConfigError):
        client_work(empty, ScaleMatrix.ones(small_dims.num_activities + 1), 1.0, small_dims)
    with pytest.raises(ConfigError):
        client_work(empty, ones, np.ones((small_dims.num_activities + 1, 3)), small_dims)


def test_fleet_preserves_user_order(small_dims, rng, monkeypatch):
    # every mechanism's pre-noise aggregate is the left-to-right sum, in
    # dataset order, of each user's reference clipped vector, bit for bit,
    # whatever the block size
    data = random_dataset(rng, small_dims, 300)
    users = users_of(data)
    scales = ScaleMatrix(np.exp(rng.normal(0, 1, size=(small_dims.num_activities, 3))))
    ones = ScaleMatrix.ones(small_dims.num_activities)
    clips = np.exp(rng.normal(1, 1, size=(small_dims.num_activities, 3)))
    cases = [
        (lambda: prepare("activity_metric_scaling", data, 4.0, small_dims, scales),
         [clip_l1(user_histogram(records, small_dims, scales), 4.0) for _, records in users]),
        (lambda: prepare("joint_clipping", data, 30.0, small_dims),
         [clip_l1(raw_histogram(records, small_dims), 30.0) for _, records in users]),
        (lambda: prepare("budget_split", data, clips, small_dims),
         [clip_slices(raw_histogram(records, small_dims), clips) for _, records in users]),
    ]
    for run, vectors in cases:
        expected = user_order_sum(vectors, small_dims)
        for block_records in (1 << 15, 1 << 13, 50, 1):
            monkeypatch.setattr(schema, "_BLOCK_RECORDS", block_records)
            prepared = run()
            assert np.array_equal(prepared.pre_noise_dense, expected), \
                prepared.config.mechanism_kind
        # the data is rich enough that another order changes some bits
        assert not np.array_equal(user_order_sum(vectors[::-1], small_dims), expected)


def test_per_user_passes_hold_one_block_of_scratch():
    # beyond its output, a pass over the users holds a few addend-sized
    # arrays of one block (three float64 per record), however many blocks
    dims = Dimensions(num_activities=9, num_regions=100)
    scales = ScaleMatrix(np.full((dims.num_activities, 3), 2.0))
    passes = (lambda data: secure_sum(client_work(data, scales, 5.0, dims), dims),
              lambda data: ground_truth(data, dims))

    def dataset(num_users):
        return generate(GeneratorSpec(num_users=num_users, dims=dims,
                                      activity_profiles=default_profiles(), seed=1))

    for run in passes:  # the first calls allocate once per process
        run(dataset(50))
    peaks = []
    for num_users in (6000, 12000):
        data = dataset(num_users)
        assert data.num_records >= 8 * schema._BLOCK_RECORDS
        for run in passes:
            tracemalloc.start()
            try:
                run(data)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    block_bytes = schema._BLOCK_RECORDS * 3 * 8
    for peak, doubled in zip(peaks[:2], peaks[2:]):
        assert max(peak, doubled) < 32 * block_bytes
        assert doubled < 1.25 * peak
