import math
from functools import reduce

import numpy as np
import pytest

from dpgb import aggregation, mechanisms, schema
from dpgb.dp_core import dense_laplace_noise, exact_quantile
from dpgb.mechanisms import (
    SubRelease,
    calibration_table,
    finish_release,
    fit_clip,
    fit_scales,
    manifest_line,
    prepare_release,
    slice_noise_scales,
)
from dpgb.schema import ConfigError, Dimensions, MechanismConfig, ScaleMatrix
from conftest import prepare, random_dataset, raw_histogram
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
        result = finish_release(prepare("budget_split", data, clips, small_dims), 2.0, 0.0, 3)
        split_count = small_dims.num_activities * 3
        charged = [eps for _, eps in result.ledger.charges]
        assert len(charged) == split_count
        assert all(eps == 2.0 / split_count for eps in charged)
        assert result.ledger.total() == pytest.approx(2.0, abs=1e-12)

    def test_single_activity_three_slices(self, rng):
        dims = Dimensions(num_activities=1, num_regions=4)
        data = random_dataset(rng, dims, 5)
        result = finish_release(prepare("budget_split", data, np.full((1, 3), 2.0), dims),
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
        result = finish_release(prepare("budget_split", make_dataset([]), clips, dims),
                                epsilon, 0.0, seed)
        unit = dense_laplace_noise(1.0, seed, dims.total_cells)
        b_flat = np.repeat((clips * split_count).reshape(-1), dims.num_regions * 3) / epsilon
        expected = unit * b_flat
        kept = result.released != 0.0
        assert np.array_equal(result.released[kept], expected[kept])
        assert np.all(result.released >= 0)

    def test_pre_noise_is_union_of_clipped_slices(self, small_dims, rng):
        data = random_dataset(rng, small_dims, 10)
        clips = np.full((small_dims.num_activities, 3), 3.0)
        pre_noise = prepare("budget_split", data, clips, small_dims).pre_noise_dense
        expected = SparseHistogram.empty(small_dims)
        for a in range(small_dims.num_activities):
            for m in range(3):
                for _, recs in users_of(data):
                    hist = raw_histogram(recs, small_dims)
                    cells = {c: v for c, v in hist.cells.items() if c[0] == a and c[1] == m}
                    if cells:
                        expected = expected.add(
                            clip_l1(SparseHistogram(small_dims, cells), 3.0))
        assert np.allclose(pre_noise, expected.to_dense(), rtol=1e-12, atol=0.0)

    def test_grid_shape_validated(self, small_dims):
        with pytest.raises(ConfigError):
            prepare("budget_split", make_dataset([]), np.ones((1, 3)), small_dims)


class TestJointClipping:
    def test_pre_noise_exact_truth_when_clip_large(self, small_dims, rng):
        data = random_dataset(rng, small_dims, 10)
        big = max(raw_histogram(r, small_dims).l1_norm() for _, r in users_of(data)) + 1
        assert np.array_equal(prepare("joint_clipping", data, big, small_dims).pre_noise_dense,
                              merged_user_histograms(data, small_dims).to_dense())

    def test_is_all_ones_special_case_bit_identical(self, small_dims, rng):
        data = random_dataset(rng, small_dims, 15)
        ones = ScaleMatrix.ones(small_dims.num_activities)
        joint = finish_release(prepare("joint_clipping", data, 7.0, small_dims), 2.0, 0.0, 99)
        ams = finish_release(prepare("activity_metric_scaling", data, 7.0, small_dims, ones),
                             2.0, 0.0, 99)
        assert np.array_equal(joint.released, ams.released)

    def test_uniform_noise_hurts_small_magnitude_metric(self, small_dims):
        # same absolute noise on count cells (~1 per trip) and duration cells
        # (~600 per trip), so relative errors track the magnitude ratio
        records = tuple(TripRecord(0, 0, 0, 5.0, 600.0) for _ in range(1))
        data = make_dataset([(f"u{i}", records) for i in range(30)])
        count_cell, duration_cell = (0, 0, 0, 0), (0, 2, 0, 0)
        count_flat, duration_flat = (small_dims.cell_index(*count_cell),
                                     small_dims.cell_index(*duration_cell))
        truth = merged_user_histograms(data, small_dims)
        magnitude_ratio = truth.get(duration_cell) / truth.get(count_cell)
        count_errors, duration_errors = [], []
        for seed in range(300):
            result = finish_release(prepare("joint_clipping", data, 1e6, small_dims),
                                    1.0, 0.0, seed)
            count_errors.append(
                abs(result.released[count_flat] - truth.get(count_cell))
                / truth.get(count_cell))
            duration_errors.append(
                abs(result.released[duration_flat] - truth.get(duration_cell))
                / truth.get(duration_cell))
        error_ratio = np.mean(count_errors) / np.mean(duration_errors)
        assert error_ratio == pytest.approx(magnitude_ratio, rel=0.5)


class TestActivityMetricScaling:
    def test_descaled_pre_noise_is_descaled_clipped_sum(self, small_dims, rng):
        data = random_dataset(rng, small_dims, 20)
        scales = fit_scales(data, small_dims)
        clip = fit_clip(data, scales, small_dims)
        prepared = prepare("activity_metric_scaling", data, clip, small_dims, scales)
        descaled = prepared.pre_noise_dense * per_cell(scales, small_dims)
        fleet = [clip_l1(user_histogram(recs, small_dims, scales), clip)
                 for _, recs in users_of(data)]
        scaled_sum = reduce(lambda x, y: x.add(y), fleet, SparseHistogram.empty(small_dims))
        expected = scaled_sum.to_dense() * per_cell(scales, small_dims)
        assert np.allclose(descaled, expected, rtol=1e-12, atol=0.0)

    def test_single_epsilon_charge(self, small_dims, rng):
        data = random_dataset(rng, small_dims, 5)
        scales = ScaleMatrix.ones(small_dims.num_activities)
        result = finish_release(prepare("activity_metric_scaling", data, 5.0, small_dims, scales),
                                2.0, 0.0, 1)
        assert len(result.ledger.charges) == 1
        assert result.ledger.total() == 2.0

    def test_deterministic_same_seed(self, small_dims, rng):
        data = random_dataset(rng, small_dims, 8)
        scales = ScaleMatrix.ones(small_dims.num_activities)
        a = finish_release(prepare("activity_metric_scaling", data, 5.0, small_dims, scales),
                           1.0, 0.0, 44)
        b = finish_release(prepare("activity_metric_scaling", data, 5.0, small_dims, scales),
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
            grown = make_dataset(users_of(data) + (("extra", users_of(extra)[6][1]),))

            for prep in (lambda d: prepare("activity_metric_scaling", d, clip, small_dims, scales),
                         lambda d: prepare("joint_clipping", d, clip, small_dims)):
                distance = np.abs(prep(grown).pre_noise_dense - prep(data).pre_noise_dense).sum()
                assert distance <= clip * (1 + 1e-9) + 1e-12

            delta = (prepare("budget_split", grown, clips, small_dims).pre_noise_dense
                     - prepare("budget_split", data, clips, small_dims).pre_noise_dense)
            # each (activity, metric) slice is a contiguous run of the flat vector
            per_slice = np.abs(delta).reshape(clips.size, -1).sum(axis=1)
            assert np.all(per_slice <= clips.reshape(-1) * (1 + 1e-9) + 1e-12)


class TestFitScales:
    def test_constant_norms(self, small_dims):
        # every user: one trip of activity 0, distance 2, duration 8
        records = (TripRecord(0, 0, 0, 2.0, 8.0),)
        data = make_dataset([(f"u{i}", records) for i in range(50)])
        scales = fit_scales(data, small_dims)
        assert scales.entries[0, 0] == 1.0   # one trip each
        assert scales.entries[0, 1] == 2.0
        assert scales.entries[0, 2] == 8.0

    def test_unused_activity_defaults_to_one(self, small_dims):
        records = (TripRecord(0, 0, 0, 2.0, 8.0),)
        data = make_dataset([("u0", records)])
        scales = fit_scales(data, small_dims)
        assert all(scales.entries[1, m] == 1.0 for m in range(3))

    def test_exponential_norms_hit_analytic_quantile(self, rng):
        dims = Dimensions(num_activities=1, num_regions=2)
        users = []
        for i in range(10_000):
            d = float(rng.exponential(1.0))
            users.append((f"u{i}", (TripRecord(0, 0, 0, d, 0.0),)))
        data = make_dataset(users)
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
            expected[a, m] = exact_quantile(values, 0.95)
        for block_records in (1 << 15, 1 << 13, 37):
            monkeypatch.setattr(schema, "_BLOCK_RECORDS", block_records)
            assert fit_scales(data, small_dims).entries.tobytes() == expected.tobytes()

    def test_permutation_invariant(self, small_dims, rng):
        data = random_dataset(rng, small_dims, 30)
        shuffled = make_dataset(reversed(users_of(data)))
        assert np.array_equal(fit_scales(data, small_dims).entries,
                              fit_scales(shuffled, small_dims).entries)


class TestFitClip:
    def test_single_user(self, small_dims):
        records = (TripRecord(0, 0, 0, 2.0, 8.0),)
        data = make_dataset([("u0", records)])
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
        data = make_dataset(users)
        raw_norms = [raw_histogram(r, dims).l1_norm() for _, r in users_of(data)]
        assert max(raw_norms) / min(raw_norms) >= 100.0
        scales = fit_scales(data, dims)
        clip = fit_clip(data, scales, dims)
        assert 0.5 <= clip <= 1.5

    def test_zero_record_users_count(self, small_dims, monkeypatch):
        # norms 0 (empty), 11, 0 (empty), 3, 0 (empty): the empty users sit
        # at both ends and in the middle, and each counts in the quantile
        data = make_dataset([
            ("e0", ()),
            ("a", (TripRecord(0, 0, 0, 2.0, 8.0),)),
            ("e1", ()),
            ("b", (TripRecord(1, 1, 1, 1.0, 1.0),)),
            ("e2", ()),
        ])
        assert data.num_users == 5 and data.num_records == 2
        ones = ScaleMatrix.ones(small_dims.num_activities)
        for q, clip in ((0.6, 0.0), (0.7, 3.0), (0.9, 11.0)):
            monkeypatch.setattr(mechanisms, "FIT_QUANTILE", q)
            assert fit_clip(data, ones, small_dims) == clip
        # nor do they move the slice quantiles, which skip empty slices
        monkeypatch.setattr(mechanisms, "FIT_QUANTILE", 0.5)
        assert fit_scales(data, small_dims).entries.tolist() == [
            [1.0, 2.0, 8.0], [1.0, 1.0, 1.0]]

    def test_empty_dataset_rejected(self, small_dims):
        with pytest.raises(ConfigError):
            fit_clip(make_dataset([]), ScaleMatrix.ones(small_dims.num_activities),
                     small_dims)


def release(cfg, data, dims):
    """The run ``dpgb release`` makes of a config: prepare, then finish in
    place at the config's budget, threshold and seed."""
    return finish_release(prepare_release(cfg, data, dims), cfg.epsilon, cfg.threshold_tau,
                          cfg.rng_seed, in_place=True)


class TestPrepareThenFinish:
    def test_dispatch_matches_direct_runs(self, small_dims, rng):
        data = random_dataset(rng, small_dims, 10)
        ones = ScaleMatrix.ones(small_dims.num_activities)
        cfg = MechanismConfig(2.0, "joint_clipping", 4.0, ones, 0.0, 11)
        assert np.array_equal(release(cfg, data, small_dims).released,
                              finish_release(prepare("joint_clipping", data, 4.0, small_dims),
                                             2.0, 0.0, 11).released)

        grid = np.full((small_dims.num_activities, 3), 2.0)
        cfg = MechanismConfig(2.0, "budget_split", grid, ones, 0.0, 11)
        assert np.array_equal(release(cfg, data, small_dims).released,
                              finish_release(prepare("budget_split", data, grid, small_dims),
                                             2.0, 0.0, 11).released)

        scales = ScaleMatrix(np.full((small_dims.num_activities, 3), 2.0))
        cfg = MechanismConfig(2.0, "activity_metric_scaling", 4.0, scales, 1.0, 11)
        assert np.array_equal(
            release(cfg, data, small_dims).released,
            finish_release(prepare("activity_metric_scaling", data, 4.0, small_dims, scales),
                           2.0, 1.0, 11).released)

    def test_config_echo_and_manifest_line(self, small_dims, rng):
        data = random_dataset(rng, small_dims, 4)
        ones = ScaleMatrix.ones(small_dims.num_activities)
        cfg = MechanismConfig(2.0, "joint_clipping", 4.0, ones, 0.0, 11)
        result = release(cfg, data, small_dims)
        assert result.config_echo.epsilon == 2.0
        assert result.config_echo.rng_seed == 11
        assert result.ledger.total() == 2.0
        line = manifest_line(result)
        assert line.startswith("joint_clipping,2.0,4.0,11,")
        assert line.endswith(f",{result.suppressed_cells}")


def test_finish_release_rejects_bad_epsilon(small_dims, rng):
    data = random_dataset(rng, small_dims, 3)
    prep = prepare("joint_clipping", data, 2.0, small_dims)
    with pytest.raises(ConfigError):
        finish_release(prep, 0.0, 0.0, 1)


def _config(kind, clip, scales=None, epsilon=1.0, num_activities=2):
    if scales is None:
        scales = ScaleMatrix.ones(num_activities)
    return MechanismConfig(epsilon, kind, clip, scales, 0.0, 0)


class TestCalibrationTable:
    """Noise scales and ledger charges both come from the rows of one table."""

    def test_rows_per_mechanism(self):
        scales = ScaleMatrix(np.array([[2.0, 3.0, 5.0], [7.0, 11.0, 13.0]]))
        grid = np.array([[1.0, 2.0, 4.0], [8.0, 16.0, 32.0]])
        for kind, clip, s in (("joint_clipping", 4.0, None),
                              ("activity_metric_scaling", 4.0, scales)):
            assert calibration_table(_config(kind, clip, s)) == (
                SubRelease("laplace_noise", (0, 1, 2, 3, 4, 5), 4.0, 1),)
        assert calibration_table(_config("budget_split", grid)) == tuple(
            SubRelease(f"slice_a{a}_{metric}", (3 * a + m,), grid[a, m], 6)
            for a in range(2) for m, metric in enumerate(schema.METRIC_NAMES))

    @pytest.mark.parametrize("tau", [-1.0, math.nan, math.inf])
    @pytest.mark.parametrize("kind", schema.MECHANISM_KINDS)
    def test_bad_tau_raises_before_any_noise(self, small_dims, monkeypatch, kind, tau):
        drawn = []

        def counting(*args, **kwargs):
            drawn.append(args)
            return dense_laplace_noise(*args, **kwargs)
        monkeypatch.setattr(aggregation, "dense_laplace_noise", counting)
        clip = np.full((small_dims.num_activities, 3), 2.0) if kind == "budget_split" else 2.0
        prepared = prepare(kind, make_dataset([]), clip, small_dims)
        with pytest.raises(ConfigError, match="threshold_tau must be finite and >= 0"):
            finish_release(prepared, 1.0, tau, 1)
        assert not drawn
        finish_release(prepared, 1.0, 0.0, 1)
        assert drawn  # the count sees the noise a good tau draws

    @pytest.mark.parametrize("slices", [
        [(0, 1, 2), (3, 4)],          # slice 5 left out
        [(0, 1, 2), (2, 3, 4, 5)],    # slice 2 twice
        [(0, 1, 2, 3, 4, 5, 6)],      # a slice the domain does not have
        [],
    ])
    def test_table_must_cover_each_slice_once(self, small_dims, monkeypatch, slices):
        def refuse(*args, **kwargs):
            raise AssertionError("noised or charged before the table was checked")
        monkeypatch.setattr(mechanisms, "noise_descale_threshold", refuse)
        monkeypatch.setattr(mechanisms.PrivacyLedger, "charge", refuse)
        prepared = prepare("joint_clipping", make_dataset([]), 1.0, small_dims)
        table = tuple(SubRelease(f"r{i}", cover, 1.0, len(slices))
                      for i, cover in enumerate(slices))
        monkeypatch.setattr(mechanisms, "calibration_table", lambda config: table)
        with pytest.raises(ConfigError, match="exactly once"):
            finish_release(prepared, 1.0, 0.0, 1)

    @pytest.mark.parametrize("kind", schema.MECHANISM_KINDS)
    def test_noise_scale_is_sensitivity_times_k_over_epsilon(self, rng, kind):
        dims = Dimensions(num_activities=3, num_regions=2)
        scales = ScaleMatrix(np.exp(rng.normal(0, 1, size=(3, 3))))
        clip = np.exp(rng.normal(0, 1, size=(3, 3))) if kind == "budget_split" else 2.7
        if kind != "activity_metric_scaling":
            scales = None
        prepared = prepare(kind, make_dataset([]), clip, dims, scales)
        slice_scales = prepared.config.scales.entries.reshape(-1)
        for epsilon in (0.25, 1.0 / 3.0, 2.0, 16.0):
            result = finish_release(prepared, epsilon, 0.0, 8)
            table = calibration_table(result.config_echo)
            b = [0.0] * 9
            for row in table:
                for s in row.slices:
                    b[s] = row.sensitivity * row.k / epsilon
            assert slice_noise_scales(table, 9, epsilon).tolist() == b
            assert result.ledger.charges == [(row.label, (1.0 / row.k) * epsilon)
                                             for row in table]
            noise = dense_laplace_noise(np.repeat(b, 6), 8, dims.total_cells)
            descaled = (noise + 0.0) * np.repeat(slice_scales, 6)
            assert np.array_equal(result.released, np.maximum(descaled, 0.0))


# --- statistical privacy audit -------------------------------------------------
#
# Worst-case add-one-user neighbours on a tiny domain, noised many times with
# the per-slice scales finish_release derives.  For each of two threshold
# events, the ratio of its probabilities under the two neighbours must not
# exceed e^epsilon; the audit reports a lower confidence bound on the larger
# ratio (Clopper-Pearson intervals at level AUDIT_ALPHA), so a bound above
# e^epsilon is evidence of a violation (after Ding et al., CCS 2018).

AUDIT_EPSILON = 1.0
AUDIT_DRAWS = 200_000
AUDIT_ALPHA = 1e-3
AUDIT_DIMS = Dimensions(num_activities=1, num_regions=2)


def _betacf(a, b, x):
    # continued fraction of the incomplete beta function, modified Lentz
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 100_000):
        for aa in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                   -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + aa / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            return h
    raise RuntimeError("incomplete beta continued fraction did not converge")


def _betainc(a, b, x):
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0 or x >= 1.0:
        return 0.0 if x <= 0.0 else 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def _beta_ppf(q, a, b):
    lo, hi = 0.0, 1.0
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if _betainc(a, b, mid) < q else (lo, mid)
    return 0.5 * (lo + hi)


def clopper_pearson(k, n, alpha):
    """Exact two-sided 1 - alpha confidence interval of a binomial proportion."""
    lo = _beta_ppf(alpha / 2, k, n - k + 1) if k > 0 else 0.0
    hi = _beta_ppf(1 - alpha / 2, k + 1, n - k) if k < n else 1.0
    return lo, hi


def audit_bound(pre, pre_grown, b_cell, seed):
    """Lower confidence bound on the larger of the probability ratios of
    {every differing cell >= its grown value} and {every differing cell <=
    its base value}, each taken in the direction that exceeds 1."""
    diff = np.flatnonzero(pre_grown != pre)
    assert diff.size and np.all(pre_grown[diff] > pre[diff])
    noise = dense_laplace_noise(b_cell[diff], seed, (2, AUDIT_DRAWS, diff.size))
    outputs = (pre[diff] + noise[0], pre_grown[diff] + noise[1])
    bound = 0.0
    for event, likelier in ((lambda y: np.all(y >= pre_grown[diff], axis=1), 1),
                            (lambda y: np.all(y <= pre[diff], axis=1), 0)):
        counts = [int(np.count_nonzero(event(y))) for y in outputs]
        low = clopper_pearson(counts[likelier], AUDIT_DRAWS, AUDIT_ALPHA)[0]
        high = clopper_pearson(counts[1 - likelier], AUDIT_DRAWS, AUDIT_ALPHA)[1]
        bound = max(bound, low / high)
    return bound


def audit_neighbours(kind):
    """A config and its worst-case neighbours: the added user holds the clip
    in one cell, or, under budget_split, each slice's grid entry in every
    slice."""
    ones = ScaleMatrix.ones(1)
    config = {
        "joint_clipping": _config("joint_clipping", 3.0, ones),
        "activity_metric_scaling": _config(
            "activity_metric_scaling", 3.0, ScaleMatrix(np.array([[2.0, 4.0, 300.0]]))),
        "budget_split": _config("budget_split", np.array([[2.0, 10.0, 100.0]]), ones),
    }[kind]
    distance, duration = (50.0, 5000.0) if kind == "budget_split" else (0.0, 0.0)
    base = random_dataset(np.random.default_rng(7), AUDIT_DIMS, 6)
    worst = tuple(TripRecord(0, 0, 0, distance, duration) for _ in range(1000))
    grown = make_dataset(users_of(base) + (("added", worst),))
    pre, pre_grown = (mechanisms.prepare_release(config, data, AUDIT_DIMS).pre_noise_dense
                      for data in (base, grown))
    return config, pre, pre_grown


def cell_scales(table):
    return np.repeat(slice_noise_scales(table, 3, AUDIT_EPSILON), AUDIT_DIMS.num_regions * 3)


class TestPrivacyAudit:
    def test_clopper_pearson_closed_forms(self):
        # k = 0 and k = n have closed forms; the interval is symmetric in k
        assert clopper_pearson(0, 10, 0.05)[1] == pytest.approx(1 - 0.025 ** 0.1, rel=1e-12)
        assert clopper_pearson(10, 10, 0.05)[0] == pytest.approx(0.025 ** 0.1, rel=1e-12)
        lo, hi = clopper_pearson(3000, 200_000, 1e-3)
        mirror = clopper_pearson(197_000, 200_000, 1e-3)
        assert lo < 0.015 < hi
        assert (lo, hi) == pytest.approx((1 - mirror[1], 1 - mirror[0]), rel=1e-9)

    @pytest.mark.parametrize("kind", schema.MECHANISM_KINDS)
    def test_mechanism_passes(self, kind):
        config, pre, pre_grown = audit_neighbours(kind)
        b_cell = cell_scales(calibration_table(config))
        # the audited scales are the ones a real release draws with
        prepared = mechanisms.PreparedRelease(config, AUDIT_DIMS, np.zeros(pre.size))
        released = finish_release(prepared, AUDIT_EPSILON, 0.0, 3).released
        per_cell_scale = np.repeat(config.scales.entries.reshape(-1), AUDIT_DIMS.num_regions * 3)
        noise = dense_laplace_noise(b_cell, 3, pre.size)
        assert np.array_equal(released, np.maximum((noise + 0.0) * per_cell_scale, 0.0))

        bound = audit_bound(pre, pre_grown, b_cell, seed=11)
        assert bound <= math.exp(AUDIT_EPSILON)
        # the neighbours are worst case: the ratio comes close to e^epsilon
        assert bound >= math.exp(0.8 * AUDIT_EPSILON)

    @pytest.mark.parametrize("kind, mutant", [
        ("joint_clipping", lambda row: row._replace(sensitivity=row.sensitivity / 2)),
        ("budget_split", lambda row: row._replace(k=1)),
    ], ids=["half_scale", "budget_split_without_split_count"])
    def test_miscalibrated_tables_are_flagged(self, kind, mutant):
        config, pre, pre_grown = audit_neighbours(kind)
        table = tuple(mutant(row) for row in calibration_table(config))
        assert audit_bound(pre, pre_grown, cell_scales(table), seed=11) > math.exp(AUDIT_EPSILON)
