import math
from functools import reduce

import numpy as np
import pytest

from dpgb import schema
from dpgb.dp_core import dense_laplace_noise, exact_quantile
from dpgb.mechanisms import (
    finish_release,
    fit_clip,
    fit_scales,
    manifest_line,
    prepare_activity_metric_scaling,
    prepare_budget_split,
    prepare_joint_clipping,
    run_release,
)
from dpgb.schema import ConfigError, Dimensions, MechanismConfig, ScaleMatrix
from conftest import random_dataset, raw_histogram
from sparse_reference import (
    SparseHistogram,
    TripRecord,
    clip_l1,
    make_dataset,
    per_cell,
    user_histogram,
    users_of,
)


def merged_user_histograms(data, dims):
    return reduce(lambda x, y: x.add(y),
                  [raw_histogram(recs, dims) for _, recs in users_of(data)],
                  SparseHistogram.empty(dims))


class TestBudgetSplit:
    def test_charges_split_equally(self, small_dims, rng):
        data = random_dataset(rng, small_dims, 8)
        clips = np.full((small_dims.num_activities, 3), 5.0)
        result = finish_release(prepare_budget_split(data, clips, small_dims), 2.0, 0.0, 3)
        split_count = small_dims.num_activities * 3
        charged = [eps for _, eps in result.ledger.charges]
        assert len(charged) == split_count
        assert all(eps == 2.0 / split_count for eps in charged)
        assert result.total_epsilon == pytest.approx(2.0, abs=1e-12)

    def test_single_activity_three_slices(self, rng):
        dims = Dimensions(num_activities=1, num_regions=4)
        data = random_dataset(rng, dims, 5)
        result = finish_release(prepare_budget_split(data, np.full((1, 3), 2.0), dims),
                                1.5, 0.0, 3)
        charged = [eps for _, eps in result.ledger.charges]
        assert len(charged) == 3
        assert all(eps == 0.5 for eps in charged)

    def test_per_slice_noise_scale(self):
        # zero data: released positives are exactly the per-slice-scaled stream
        dims = Dimensions(num_activities=2, num_regions=3)
        clips = np.array([[1.0, 2.0, 4.0], [8.0, 16.0, 32.0]])
        epsilon, seed = 2.0, 271
        split_count = dims.num_activities * 3
        result = finish_release(prepare_budget_split(make_dataset("w", []), clips, dims),
                                epsilon, 0.0, seed)
        unit = dense_laplace_noise(1.0, seed, dims.total_cells)
        b_flat = np.repeat((clips * split_count).reshape(-1), dims.num_regions * 3) / epsilon
        expected = unit * b_flat
        kept = result.released != 0.0
        assert np.array_equal(result.released[kept], expected[kept])
        assert np.all(result.released >= 0)

    def test_test_mode_is_union_of_clipped_slices(self, small_dims, rng):
        data = random_dataset(rng, small_dims, 10)
        clips = np.full((small_dims.num_activities, 3), 3.0)
        result = finish_release(prepare_budget_split(data, clips, small_dims),
                                1.0, 0.0, 1, test_mode=True)
        expected = SparseHistogram.empty(small_dims)
        for a in range(small_dims.num_activities):
            for m in range(3):
                for _, recs in users_of(data):
                    hist = raw_histogram(recs, small_dims)
                    cells = {c: v for c, v in hist.cells.items() if c[0] == a and c[1] == m}
                    if cells:
                        expected = expected.add(
                            clip_l1(SparseHistogram(small_dims, cells), 3.0))
        assert np.allclose(result.released, expected.to_dense(), rtol=1e-12, atol=0.0)

    def test_grid_shape_validated(self, small_dims):
        with pytest.raises(ConfigError):
            finish_release(prepare_budget_split(make_dataset("w", []), np.ones((1, 3)), small_dims),
                           1.0, 0.0, 1)


class TestJointClipping:
    def test_test_mode_exact_truth_when_clip_large(self, small_dims, rng):
        data = random_dataset(rng, small_dims, 10)
        big = max(raw_histogram(r, small_dims).l1_norm() for _, r in users_of(data)) + 1
        result = finish_release(prepare_joint_clipping(data, big, small_dims),
                                1.0, 0.0, 1, test_mode=True)
        assert np.array_equal(result.released,
                              merged_user_histograms(data, small_dims).to_dense())

    def test_is_all_ones_special_case_bit_identical(self, small_dims, rng):
        data = random_dataset(rng, small_dims, 15)
        ones = ScaleMatrix.ones(small_dims.num_activities)
        joint = finish_release(prepare_joint_clipping(data, 7.0, small_dims), 2.0, 0.0, 99)
        ams = finish_release(prepare_activity_metric_scaling(data, ones, 7.0, small_dims),
                             2.0, 0.0, 99)
        assert np.array_equal(joint.released, ams.released)

    def test_uniform_noise_hurts_small_magnitude_metric(self, small_dims):
        # same absolute noise on count cells (~1 per trip) and duration cells
        # (~600 per trip), so relative errors track the magnitude ratio
        records = tuple(TripRecord(0, 0, 0, 5.0, 600.0) for _ in range(1))
        data = make_dataset("w", [(f"u{i}", records) for i in range(30)])
        count_cell, duration_cell = (0, 0, 0, 0), (0, 2, 0, 0)
        count_flat, duration_flat = (small_dims.cell_index(*count_cell),
                                     small_dims.cell_index(*duration_cell))
        truth = merged_user_histograms(data, small_dims)
        magnitude_ratio = truth.get(duration_cell) / truth.get(count_cell)
        count_errors, duration_errors = [], []
        for seed in range(300):
            result = finish_release(prepare_joint_clipping(data, 1e6, small_dims), 1.0, 0.0, seed)
            count_errors.append(
                abs(result.released[count_flat] - truth.get(count_cell))
                / truth.get(count_cell))
            duration_errors.append(
                abs(result.released[duration_flat] - truth.get(duration_cell))
                / truth.get(duration_cell))
        error_ratio = np.mean(count_errors) / np.mean(duration_errors)
        assert error_ratio == pytest.approx(magnitude_ratio, rel=0.5)


class TestActivityMetricScaling:
    def test_zero_noise_release_is_descaled_clipped_sum(self, small_dims, rng):
        data = random_dataset(rng, small_dims, 20)
        scales = fit_scales(data, small_dims)
        clip = fit_clip(data, scales, small_dims)
        result = finish_release(prepare_activity_metric_scaling(data, scales, clip, small_dims),
                                1.0, 0.0, 5, test_mode=True)
        fleet = [clip_l1(user_histogram(recs, small_dims, scales), clip)
                 for _, recs in users_of(data)]
        scaled_sum = reduce(lambda x, y: x.add(y), fleet, SparseHistogram.empty(small_dims))
        expected = scaled_sum.to_dense() * per_cell(scales, small_dims)
        assert np.allclose(result.released, expected, rtol=1e-12, atol=0.0)

    def test_single_epsilon_charge(self, small_dims, rng):
        data = random_dataset(rng, small_dims, 5)
        scales = ScaleMatrix.ones(small_dims.num_activities)
        result = finish_release(prepare_activity_metric_scaling(data, scales, 5.0, small_dims),
                                2.0, 0.0, 1)
        assert len(result.ledger.charges) == 1
        assert result.total_epsilon == 2.0

    def test_deterministic_same_seed(self, small_dims, rng):
        data = random_dataset(rng, small_dims, 8)
        scales = ScaleMatrix.ones(small_dims.num_activities)
        a = finish_release(prepare_activity_metric_scaling(data, scales, 5.0, small_dims),
                           1.0, 0.0, 44)
        b = finish_release(prepare_activity_metric_scaling(data, scales, 5.0, small_dims),
                           1.0, 0.0, 44)
        assert np.array_equal(a.released, b.released)


class TestAdjacency:
    def test_pre_noise_aggregates_within_clip(self, small_dims, rng):
        clip = 3.0
        clips = np.full((small_dims.num_activities, 3), 2.0)
        scales = ScaleMatrix(np.exp(rng.normal(0, 1, size=(small_dims.num_activities, 3))))
        for _ in range(20):
            data = random_dataset(rng, small_dims, 6)
            extra = random_dataset(rng, small_dims, 7)
            grown = make_dataset("w", users_of(data) + (("extra", users_of(extra)[6][1]),))

            for prep in (lambda d: prepare_activity_metric_scaling(d, scales, clip, small_dims),
                         lambda d: prepare_joint_clipping(d, clip, small_dims)):
                distance = np.abs(prep(grown).pre_noise_dense - prep(data).pre_noise_dense).sum()
                assert distance <= clip * (1 + 1e-9) + 1e-12

            delta = (prepare_budget_split(grown, clips, small_dims).pre_noise_dense
                     - prepare_budget_split(data, clips, small_dims).pre_noise_dense)
            # each (activity, metric) slice is a contiguous run of the flat vector
            per_slice = np.abs(delta).reshape(clips.size, -1).sum(axis=1)
            assert np.all(per_slice <= clips.reshape(-1) * (1 + 1e-9) + 1e-12)


class TestFitScales:
    def test_constant_norms(self, small_dims):
        # every user: one trip of activity 0, distance 2, duration 8
        records = (TripRecord(0, 0, 0, 2.0, 8.0),)
        data = make_dataset("w", [(f"u{i}", records) for i in range(50)])
        scales = fit_scales(data, small_dims)
        assert scales.entries[0, 0] == 1.0   # one trip each
        assert scales.entries[0, 1] == 2.0
        assert scales.entries[0, 2] == 8.0

    def test_unused_activity_defaults_to_one(self, small_dims):
        records = (TripRecord(0, 0, 0, 2.0, 8.0),)
        data = make_dataset("w", [("u0", records)])
        scales = fit_scales(data, small_dims)
        assert all(scales.entries[1, m] == 1.0 for m in range(3))

    def test_exponential_norms_hit_analytic_quantile(self, rng):
        dims = Dimensions(num_activities=1, num_regions=2)
        users = []
        for i in range(10_000):
            d = float(rng.exponential(1.0))
            users.append((f"u{i}", (TripRecord(0, 0, 0, d, 0.0),)))
        data = make_dataset("w", users)
        scales = fit_scales(data, dims)
        assert scales.entries[0, 1] == pytest.approx(math.log(20), abs=0.1)
        assert scales.entries[0, 0] == 1.0    # everyone has exactly one trip
        assert scales.entries[0, 2] == 1.0    # zero durations leave no nonzero slice

    def test_matches_the_dict_reference_bit_for_bit(self, small_dims, rng, monkeypatch):
        # each user's slice norm adds |v| with plain + in the order the
        # user's cells first appear, as the dict loop did
        data = random_dataset(rng, small_dims, 400, max_records=30)
        norms = {}
        for _, records in users_of(data):
            per_slice = {}
            for (a, m, _, _), value in raw_histogram(records, small_dims).cells.items():
                per_slice[(a, m)] = per_slice.get((a, m), 0.0) + abs(value)
            for key, norm in per_slice.items():
                norms.setdefault(key, []).append(norm)
        expected = np.ones((small_dims.num_activities, 3))
        for (a, m), values in norms.items():
            expected[a, m] = exact_quantile(values, 0.9)
        for block_records in (1 << 15, 37):
            monkeypatch.setattr(schema, "_BLOCK_RECORDS", block_records)
            assert fit_scales(data, small_dims, 0.9).entries.tobytes() == expected.tobytes()

    def test_permutation_invariant(self, small_dims, rng):
        data = random_dataset(rng, small_dims, 30)
        shuffled = make_dataset("w2", reversed(users_of(data)))
        assert np.array_equal(fit_scales(data, small_dims).entries,
                              fit_scales(shuffled, small_dims).entries)


class TestFitClip:
    def test_single_user(self, small_dims):
        records = (TripRecord(0, 0, 0, 2.0, 8.0),)
        data = make_dataset("w", [("u0", records)])
        ones = ScaleMatrix.ones(small_dims.num_activities)
        assert fit_clip(data, ones, small_dims) == 11.0  # 1 + 2 + 8

    def test_all_ones_matches_raw_norm_quantile(self, small_dims, rng):
        data = random_dataset(rng, small_dims, 60)
        ones = ScaleMatrix.ones(small_dims.num_activities)
        raw_norms = [raw_histogram(r, small_dims).l1_norm() for _, r in users_of(data)]
        assert fit_clip(data, ones, small_dims) == pytest.approx(
            exact_quantile(raw_norms, 0.95), rel=1e-12)

    def test_different_outliers_per_activity_keep_joint_clip_small(self, rng):
        # each user extreme in exactly one activity; after scaling, the joint
        # 95% norm stays near 1 although raw norms span orders of magnitude
        dims = Dimensions(num_activities=4, num_regions=2)
        users = []
        for i in range(2000):
            a = int(rng.integers(4))
            count = max(1, int(rng.lognormal(2.0, 1.5)))
            users.append((f"u{i}", tuple(
                TripRecord(0, a, 0, 0.0, 0.0) for _ in range(count))))
        data = make_dataset("w", users)
        raw_norms = [raw_histogram(r, dims).l1_norm() for _, r in users_of(data)]
        assert max(raw_norms) / min(raw_norms) >= 100.0
        scales = fit_scales(data, dims)
        clip = fit_clip(data, scales, dims)
        assert 0.5 <= clip <= 1.5

    def test_zero_record_users_count(self, small_dims):
        # norms 0 (empty), 11, 0 (empty), 3, 0 (empty): the empty users sit
        # at both ends and in the middle, and each counts in the quantile
        data = make_dataset("w", [
            ("e0", ()),
            ("a", (TripRecord(0, 0, 0, 2.0, 8.0),)),
            ("e1", ()),
            ("b", (TripRecord(1, 1, 1, 1.0, 1.0),)),
            ("e2", ()),
        ])
        assert data.num_users == 5 and data.num_records == 2
        ones = ScaleMatrix.ones(small_dims.num_activities)
        assert fit_clip(data, ones, small_dims, q=0.6) == 0.0
        assert fit_clip(data, ones, small_dims, q=0.7) == 3.0
        assert fit_clip(data, ones, small_dims, q=0.9) == 11.0
        # nor do they move the slice quantiles, which skip empty slices
        assert fit_scales(data, small_dims, q=0.5).entries.tolist() == [
            [1.0, 2.0, 8.0], [1.0, 1.0, 1.0]]

    def test_empty_dataset_rejected(self, small_dims):
        with pytest.raises(ConfigError):
            fit_clip(make_dataset("w", []), ScaleMatrix.ones(small_dims.num_activities),
                     small_dims)


class TestRunRelease:
    def test_dispatch_matches_direct_runs(self, small_dims, rng):
        data = random_dataset(rng, small_dims, 10)
        ones = ScaleMatrix.ones(small_dims.num_activities)
        cfg = MechanismConfig(2.0, "joint_clipping", 4.0, ones, 0.0, 11)
        assert np.array_equal(run_release(cfg, data, small_dims).released,
                              finish_release(prepare_joint_clipping(data, 4.0, small_dims),
                                             2.0, 0.0, 11).released)

        grid = np.full((small_dims.num_activities, 3), 2.0)
        cfg = MechanismConfig(2.0, "budget_split", grid, ones, 0.0, 11)
        assert np.array_equal(run_release(cfg, data, small_dims).released,
                              finish_release(prepare_budget_split(data, grid, small_dims),
                                             2.0, 0.0, 11).released)

        scales = ScaleMatrix(np.full((small_dims.num_activities, 3), 2.0))
        cfg = MechanismConfig(2.0, "activity_metric_scaling", 4.0, scales, 1.0, 11)
        assert np.array_equal(
            run_release(cfg, data, small_dims).released,
            finish_release(prepare_activity_metric_scaling(data, scales, 4.0, small_dims),
                           2.0, 1.0, 11).released)

    def test_config_echo_and_manifest_line(self, small_dims, rng):
        data = random_dataset(rng, small_dims, 4)
        ones = ScaleMatrix.ones(small_dims.num_activities)
        cfg = MechanismConfig(2.0, "joint_clipping", 4.0, ones, 0.0, 11)
        result = run_release(cfg, data, small_dims)
        assert result.config_echo.epsilon == 2.0
        assert result.total_epsilon == result.ledger.total()
        line = manifest_line(result)
        assert line.startswith("joint_clipping,2.0,4.0,11,")
        assert line.endswith(f",{result.suppressed_cells}")


def test_finish_release_rejects_bad_epsilon(small_dims, rng):
    data = random_dataset(rng, small_dims, 3)
    prep = prepare_joint_clipping(data, 2.0, small_dims)
    with pytest.raises(ConfigError):
        finish_release(prep, 0.0, 0.0, 1)
