import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from dpgb.datagen import (
    ActivityProfile,
    GeneratorSpec,
    default_profiles,
    generate,
    ground_truth,
    load_profiles,
    proxy_pair,
    read_generator_spec,
    _poisson_inverse,
)
from dpgb.schema import (
    ConfigError,
    Dimensions,
    DISTANCE,
    SparseHistogram,
    TripRecord,
    WeekDataset,
    write_records_csv,
)
from conftest import raw_histogram


def ks_distance(a, b):
    a, b = np.sort(np.asarray(a)), np.sort(np.asarray(b))
    points = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, points, side="right") / len(a)
    cdf_b = np.searchsorted(b, points, side="right") / len(b)
    return float(np.max(np.abs(cdf_a - cdf_b)))


def small_spec(**overrides):
    base = {"num_users": 200, "num_regions": 10, "seed": 5}
    base.update(overrides)
    return GeneratorSpec.default(**base)


class TestGeneratorSpec:
    def test_default_profiles_are_consistent(self):
        profiles = default_profiles()
        assert len(profiles) == 9
        assert math.fsum(p.weight for p in profiles) == pytest.approx(1.0, abs=1e-9)

    def test_validation(self):
        profiles = default_profiles()
        dims = Dimensions(num_activities=9, num_regions=10)
        with pytest.raises(ConfigError):
            GeneratorSpec(num_users=-1, dims=dims, activity_profiles=profiles)
        with pytest.raises(ConfigError):
            GeneratorSpec(num_users=1, dims=Dimensions(num_activities=2, num_regions=10),
                          activity_profiles=profiles)
        with pytest.raises(ConfigError):
            GeneratorSpec(num_users=1, dims=dims, activity_profiles=profiles,
                          outlier_fraction=1.0)
        with pytest.raises(ConfigError):
            GeneratorSpec(num_users=1, dims=dims, activity_profiles=profiles,
                          outlier_multiplier=0.5)
        bad_weights = profiles[:-1] + (replace(profiles[-1], weight=0.5),)
        with pytest.raises(ConfigError):
            GeneratorSpec(num_users=1, dims=dims, activity_profiles=bad_weights)


class TestGenerate:
    def test_zero_users(self):
        data = generate(small_spec(num_users=0))
        assert data.num_users == 0 and data.num_records == 0

    def test_records_respect_dims(self):
        spec = small_spec()
        data = generate(spec)
        for _, records in data.users:
            for rec in records:
                rec.validate(spec.dims)

    def test_deterministic_bit_for_bit(self, tmp_path):
        spec = small_spec()
        a, b = generate(spec), generate(spec)
        assert a == b
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        write_records_csv(pa, a)
        write_records_csv(pb, b)
        assert pa.read_bytes() == pb.read_bytes()

    def test_different_seeds_differ(self):
        assert generate(small_spec()) != generate(replace(small_spec(), seed=6))

    def test_degenerate_sigma_gives_exact_magnitudes(self):
        profiles = tuple(
            replace(p, distance_log_sigma=0.0, duration_log_sigma=0.0)
            for p in default_profiles())
        spec = replace(small_spec(num_users=100), activity_profiles=profiles,
                       outlier_fraction=0.0)
        data = generate(spec)
        assert data.num_records > 0
        for _, records in data.users:
            for rec in records:
                profile = profiles[rec.activity]
                assert rec.distance_km == math.exp(profile.distance_log_mean)
                assert rec.duration_s == math.exp(profile.duration_log_mean)

    def test_activity_scales_span_orders_of_magnitude(self):
        data = generate(GeneratorSpec.default(num_users=3000, num_regions=20, seed=9))
        by_activity = {}
        for _, records in data.users:
            for rec in records:
                by_activity.setdefault(rec.activity, []).append(rec.distance_km)
        means = {a: np.mean(v) for a, v in by_activity.items() if len(v) > 20}
        assert max(means.values()) / min(means.values()) > 100.0

    def test_outlier_users_boost_one_activity(self):
        base = replace(small_spec(num_users=2000), outlier_fraction=0.0)
        boosted = replace(base, outlier_fraction=0.5, outlier_multiplier=10.0)
        def max_user_distance(data):
            return max(
                (max((r.distance_km for r in recs), default=0.0) for _, recs in data.users),
                default=0.0)
        assert max_user_distance(generate(boosted)) > max_user_distance(generate(base))

    def test_proxy_pair_marginals_match(self):
        spec = GeneratorSpec.default(num_users=10_000, num_regions=50, seed=31)
        data, proxy = proxy_pair(spec)
        assert data != proxy
        for a in range(spec.dims.num_activities):
            def norms(ds):
                out = []
                for _, records in ds.users:
                    total = math.fsum(r.distance_km for r in records if r.activity == a)
                    if total > 0:
                        out.append(total)
                return out
            na, nb = norms(data), norms(proxy)
            assert min(len(na), len(nb)) > 100
            assert ks_distance(na, nb) < 0.05


class TestPoissonInverse:
    """Trip counts are drawn by inverting the Poisson CDF at one uniform."""

    def test_desk_dataset_bytes_unchanged(self, tmp_path):
        # rates below 708 keep the original recurrence draw for draw
        spec = GeneratorSpec.default(num_users=10_000, num_regions=100, seed=7)
        path = tmp_path / "desk.csv"
        write_records_csv(path, generate(spec))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "132a5272d0ec0be205bb2809c93070670d57cf7204f106297fc6e6b4ec2a0149")

    @pytest.mark.parametrize("lam", [745.0, 746.0, 1000.0, 5000.0])
    def test_large_rates(self, lam):
        rng = np.random.default_rng(int(lam))
        us = np.concatenate([[2.0 ** -54, 1e-12], np.sort(rng.random(199)),
                             [1.0 - 2.0 ** -53]])
        draws = [_poisson_inverse(float(u), lam) for u in us]
        assert all(lo <= hi for lo, hi in zip(draws, draws[1:]))  # monotone in u
        assert abs(float(np.median(draws)) - lam) <= 5.0 * math.sqrt(lam)
        assert abs(_poisson_inverse(0.5, lam) - lam) <= 5.0 * math.sqrt(lam)
        assert draws[-1] < lam + 20.0 * math.sqrt(lam)

    def test_median_within_known_bounds_across_the_switch(self):
        # the Poisson median lies in [lam - ln 2, lam + 1/3]; the recurrence
        # drifted below it once exp(-lam) went subnormal
        for step in range(601):
            lam = 700.0 + step / 10
            median = _poisson_inverse(0.5, lam)
            assert lam - math.log(2) <= median <= lam + 1 / 3, (lam, median)

    def test_large_trips_per_user_spec(self):
        data = generate(small_spec(num_users=2, trips_per_user=20_000.0))
        for _, records in data.users:
            assert abs(len(records) - 20_000) <= 5.0 * math.sqrt(20_000)


class TestGroundTruth:
    def test_single_record(self, small_dims):
        data = WeekDataset("w", (("u0", (TripRecord(1, 0, 2, 3.0, 60.0),)),))
        truth, devices = ground_truth(data, small_dims)
        assert truth.cells == {(0, 0, 1, 2): 1.0, (0, 1, 1, 2): 3.0, (0, 2, 1, 2): 60.0}
        assert devices == {(0, 0, 1, 2): 1, (0, 1, 1, 2): 1, (0, 2, 1, 2): 1}

    def test_duplicated_users_double_everything(self, small_dims):
        records = (TripRecord(1, 0, 2, 3.0, 60.0), TripRecord(0, 1, 0, 1.0, 10.0))
        one = WeekDataset("w", (("u0", records),))
        two = WeekDataset("w", (("u0", records), ("u1", records)))
        t1, d1 = ground_truth(one, small_dims)
        t2, d2 = ground_truth(two, small_dims)
        assert t2.allclose(t1.scale(2.0), rel_tol=1e-12)
        assert d2 == {cell: 2 * n for cell, n in d1.items()}

    def test_matches_fold_of_user_histograms(self):
        spec = small_spec()
        data = generate(spec)
        truth, devices = ground_truth(data, spec.dims)
        expected = SparseHistogram.empty(spec.dims)
        for _, records in data.users:
            expected = expected.add(raw_histogram(records, spec.dims))
        assert truth.allclose(expected, rel_tol=1e-9)
        assert max(devices.values()) <= data.num_users

    def test_empty_dataset(self, small_dims):
        truth, devices = ground_truth(WeekDataset("w", ()), small_dims)
        assert truth.cells == {} and devices == {}


class TestSpecFile:
    def test_read_generator_spec(self, tmp_path):
        path = tmp_path / "gen.cfg"
        path.write_text(
            "num_users = 42\nnum_regions = 7\nseed = 3\n"
            "trips_per_user = 4.0\nweek_id = w9\n")
        spec = read_generator_spec(path)
        assert spec.num_users == 42
        assert spec.dims.num_regions == 7
        assert spec.seed == 3
        assert spec.trips_per_user == 4.0
        assert spec.week_id == "w9"
        assert len(spec.activity_profiles) == 9  # packaged default table

    def test_custom_profile_table(self, tmp_path):
        table = tmp_path / "profiles.csv"
        table.write_text(
            "activity,name,weight,distance_log_mean,distance_log_sigma,"
            "duration_log_mean,duration_log_sigma\n"
            "0,slow,0.5,0.0,0.1,5.0,0.1\n"
            "1,fast,0.5,5.0,0.1,8.0,0.1\n")
        path = tmp_path / "gen.cfg"
        path.write_text("num_users = 5\nnum_regions = 3\nseed = 1\nprofiles = profiles.csv\n")
        spec = read_generator_spec(path)
        assert spec.dims.num_activities == 2
        assert spec.activity_profiles[1].name == "fast"

    def test_missing_key_and_unknown_key(self, tmp_path):
        path = tmp_path / "gen.cfg"
        path.write_text("num_users = 5\n")
        with pytest.raises(ConfigError):
            read_generator_spec(path)
        path.write_text("num_users = 5\nnum_regions = 3\nseed = 1\nbogus = 1\n")
        with pytest.raises(ConfigError):
            read_generator_spec(path)

    def test_load_profiles_rejects_sparse_indices(self, tmp_path):
        table = tmp_path / "profiles.csv"
        table.write_text(
            "activity,name,weight,distance_log_mean,distance_log_sigma,"
            "duration_log_mean,duration_log_sigma\n"
            "1,fast,1.0,5.0,0.1,8.0,0.1\n")
        with pytest.raises(ConfigError):
            load_profiles(table)
