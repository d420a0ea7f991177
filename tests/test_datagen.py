import hashlib
import math
import os
from dataclasses import replace

import numpy as np
import pytest

from dpgb import schema
from dpgb.datagen import (
    ActivityProfile,
    GeneratorSpec,
    default_profiles,
    generate,
    generate_csv,
    ground_truth,
    load_profiles,
    read_generator_spec,
    _poisson_counts,
    _poisson_table,
)
from dpgb import datagen
from dpgb.schema import ConfigError, Dimensions
from conftest import default_spec, proxy_pair
from generator_reference import poisson_inverse, reference_generate
from sparse_reference import (
    TripRecord,
    cell_tuple,
    make_dataset,
    reference_ground_truth,
    same_dataset,
    users_of,
    write_records_csv,
)


def ks_distance(a, b):
    a, b = np.sort(np.asarray(a)), np.sort(np.asarray(b))
    points = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, points, side="right") / len(a)
    cdf_b = np.searchsorted(b, points, side="right") / len(b)
    return float(np.max(np.abs(cdf_a - cdf_b)))


def small_spec(**overrides):
    base = {"num_users": 200, "num_regions": 10, "seed": 5}
    base.update(overrides)
    return default_spec(**base)


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

    @pytest.mark.parametrize("key, value", [
        (key, value) for key in ("region_zipf_s", "trips_per_user", "outlier_fraction",
                                 "outlier_multiplier")
        for value in (math.nan, math.inf)])
    def test_spec_floats_must_be_finite(self, key, value):
        with pytest.raises(ConfigError, match=f"^{key} must be finite, got {value}$"):
            small_spec(**{key: value})

    @pytest.mark.parametrize("key, value", [
        ("weight", math.nan),
        ("distance_log_mean", math.nan), ("distance_log_mean", math.inf),
        ("distance_log_mean", -math.inf),
        ("distance_log_sigma", math.nan), ("distance_log_sigma", math.inf),
        ("duration_log_mean", math.nan), ("duration_log_mean", math.inf),
        ("duration_log_mean", -math.inf),
        ("duration_log_sigma", math.nan), ("duration_log_sigma", math.inf)])
    def test_profile_floats_must_be_finite(self, key, value):
        with pytest.raises(ConfigError,
                           match=f"^profile 'walk': {key} must be finite, got {value}$"):
            replace(default_profiles()[0], name="walk", **{key: value})


def same_columns(a, b):
    """Every column of two datasets holds the same bytes in the same dtype."""
    return a.user_ids == b.user_ids and all(
        getattr(a, name).dtype == getattr(b, name).dtype
        and getattr(a, name).tobytes() == getattr(b, name).tobytes()
        for name in ("offsets", "region", "activity", "direction", "distance_km", "duration_s"))


def two_profiles(weight):
    """Two activities with distinct magnitudes, the first of this weight."""
    return (ActivityProfile("slow", weight, 0.5, 0.7, 6.0, 0.4),
            ActivityProfile("fast", 1.0 - weight, 4.0, 1.3, 8.0, 1.1))


def edge_spec(name):
    dims2 = Dimensions(num_activities=2, num_regions=30)
    return {
        "no users": small_spec(num_users=0),
        "one user": small_spec(num_users=1, seed=3),
        "one region": small_spec(num_regions=1),
        "no trips": small_spec(trips_per_user=0.0),
        "no outliers": small_spec(outlier_fraction=0.0),
        "zero-weight profile": GeneratorSpec(
            num_users=200, dims=dims2, activity_profiles=two_profiles(0.0), seed=4),
        "log-space rate": GeneratorSpec(
            num_users=3, dims=dims2, activity_profiles=two_profiles(0.9), seed=4,
            trips_per_user=1000.0, outlier_fraction=0.5),
        "overflowing user": small_spec(num_users=2000, trips_per_user=0.2, outlier_fraction=0.3),
        "custom profiles": GeneratorSpec(
            num_users=400, dims=dims2, activity_profiles=two_profiles(0.3), seed=9,
            region_zipf_s=0.7, trips_per_user=9.5, outlier_fraction=0.25,
            outlier_multiplier=3.5),
        "desk": default_spec(num_users=1000, num_regions=100, seed=7),
    }[name]


class TestReferenceGenerator:
    """The columnar generator against the scalar one, column for column."""

    @pytest.mark.parametrize("name", [
        "no users", "one user", "one region", "no trips", "no outliers", "zero-weight profile",
        "log-space rate", "overflowing user", "custom profiles", "desk"])
    def test_columns_equal_the_reference(self, name):
        spec = edge_spec(name)
        assert same_columns(generate(spec), reference_generate(spec))

    def test_the_edge_specs_reach_their_edges(self, monkeypatch):
        spec = edge_spec("log-space rate")
        assert max(spec.trips_per_user * p.weight for p in spec.activity_profiles) >= 708.0
        assert generate(edge_spec("zero-weight profile")).activity.min() == 1
        widths = []
        draw_users = datagen._draw_users

        def spy(spec, seeds, width, *args):
            widths.append((len(seeds), width))
            return draw_users(spec, seeds, width, *args)
        monkeypatch.setattr(datagen, "_draw_users", spy)
        generate(edge_spec("overflowing user"))
        assert widths == [(2000, 27), (2, 54)]  # two users drawn again, twice as wide

    @pytest.mark.parametrize("width, block_draws", [(12, 1 << 20), (13, 40), (40, 1)])
    def test_narrow_buffers_and_small_blocks(self, monkeypatch, width, block_draws):
        # most users overflow a buffer of 12 or 13 uniforms and are drawn
        # again one or more times, in blocks of one or a few users
        spec = small_spec(num_users=150)
        monkeypatch.setattr(datagen, "_draws_per_user", lambda spec: width)
        monkeypatch.setattr(datagen, "_BLOCK_DRAWS", block_draws)
        assert same_columns(generate(spec), reference_generate(spec))


class TestGenerate:
    def test_zero_users(self):
        data = generate(small_spec(num_users=0))
        assert data.num_users == 0 and data.num_records == 0

    def test_records_respect_dims(self):
        spec = small_spec()
        data = generate(spec)
        assert data.num_records > 0
        assert data.region.min() >= 0 and data.region.max() < spec.dims.num_regions
        assert data.activity.min() >= 0 and data.activity.max() < spec.dims.num_activities
        assert data.direction.min() >= 0 and data.direction.max() < 3

    def test_deterministic_bit_for_bit(self, tmp_path):
        spec = small_spec()
        a, b = generate(spec), generate(spec)
        assert same_dataset(a, b)
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        write_records_csv(pa, a)
        write_records_csv(pb, b)
        assert pa.read_bytes() == pb.read_bytes()

    def test_different_seeds_differ(self):
        assert not same_dataset(generate(small_spec()), generate(replace(small_spec(), seed=6)))

    def test_degenerate_sigma_gives_exact_magnitudes(self):
        profiles = tuple(
            replace(p, distance_log_sigma=0.0, duration_log_sigma=0.0)
            for p in default_profiles())
        spec = replace(small_spec(num_users=100), activity_profiles=profiles,
                       outlier_fraction=0.0)
        data = generate(spec)
        assert data.num_records > 0
        for _, records in users_of(data):
            for rec in records:
                profile = profiles[rec.activity]
                assert rec.distance_km == math.exp(profile.distance_log_mean)
                assert rec.duration_s == math.exp(profile.duration_log_mean)

    def test_activity_scales_span_orders_of_magnitude(self):
        data = generate(default_spec(num_users=3000, num_regions=20, seed=9))
        by_activity = {}
        for _, records in users_of(data):
            for rec in records:
                by_activity.setdefault(rec.activity, []).append(rec.distance_km)
        means = {a: np.mean(v) for a, v in by_activity.items() if len(v) > 20}
        assert max(means.values()) / min(means.values()) > 100.0

    def test_outlier_users_boost_one_activity(self):
        base = replace(small_spec(num_users=2000), outlier_fraction=0.0)
        boosted = replace(base, outlier_fraction=0.5, outlier_multiplier=10.0)
        def max_user_distance(data):
            return max(
                (max((r.distance_km for r in recs), default=0.0) for _, recs in users_of(data)),
                default=0.0)
        assert max_user_distance(generate(boosted)) > max_user_distance(generate(base))

    def test_proxy_pair_marginals_match(self):
        spec = default_spec(num_users=10_000, num_regions=50, seed=31)
        data, proxy = proxy_pair(spec)
        assert not same_dataset(data, proxy)

        def distance_sums(ds):
            """math.fsum of each user's distances per activity, (users, activities)."""
            owner = np.repeat(np.arange(ds.num_users), np.diff(ds.offsets))
            key = owner * spec.dims.num_activities + ds.activity
            order = np.argsort(key, kind="stable")
            keys, starts = np.unique(key[order], return_index=True)
            distances = ds.distance_km[order].tolist()
            edges = starts.tolist() + [len(distances)]
            sums = np.zeros((ds.num_users, spec.dims.num_activities))
            sums.reshape(-1)[keys] = [math.fsum(distances[lo:hi])
                                      for lo, hi in zip(edges, edges[1:])]
            return sums

        sums_data, sums_proxy = distance_sums(data), distance_sums(proxy)
        for a in range(spec.dims.num_activities):
            na = sums_data[:, a][sums_data[:, a] > 0]
            nb = sums_proxy[:, a][sums_proxy[:, a] > 0]
            assert min(len(na), len(nb)) > 100
            assert ks_distance(na, nb) < 0.05


class TestGenerateCsv:
    """``dpgb generate`` draws and writes the users in two halves, split at
    ``num_users // 2``: the bytes of one write of the whole week."""

    @pytest.mark.usefixtures("second_half")
    @pytest.mark.parametrize("num_users, trips_per_user, empty_user", [
        (0, 15.0, None), (1, 15.0, None), (3, 15.0, None), (40, 0.0, 20),
        (7, 2.0, 3), (8, 2.0, 3),
    ], ids=["0-users", "1-user", "3-users", "no-trips", "empty-first-of-second-half",
            "empty-last-of-first-half"])
    def test_same_bytes_as_one_write(self, tmp_path, num_users, trips_per_user, empty_user):
        spec = default_spec(num_users=num_users, num_regions=5, seed=3,
                            trips_per_user=trips_per_user)
        data = generate(spec)
        if empty_user is not None:  # the case is there: this user holds no records
            assert data.offsets[empty_user] == data.offsets[empty_user + 1]
        expected, got = tmp_path / "expected.csv", tmp_path / "got.csv"
        write_records_csv(expected, data)
        assert generate_csv(got, spec) == data.num_records
        assert got.read_bytes() == expected.read_bytes()
        assert sorted(os.listdir(tmp_path)) == ["expected.csv", "got.csv"]

    def test_a_range_of_users_is_drawn_as_in_the_whole_week(self):
        spec = small_spec(num_users=50)
        whole = generate(spec)
        head, tail = generate(spec, range(20)), generate(spec, range(20, 50))
        assert tail.user_ids == whole.user_ids[20:]
        assert np.array_equal(np.concatenate((head.offsets[:-1], tail.offsets + head.num_records)),
                              whole.offsets)
        for name in ("region", "activity", "direction", "distance_km", "duration_s"):
            column = getattr(whole, name)
            assert getattr(head, name).tobytes() + getattr(tail, name).tobytes() == column.tobytes()

    @pytest.mark.parametrize("users", [range(-1, 3), range(0, 51)],
                             ids=["negative-start", "past-the-end"])
    def test_a_range_outside_the_users_is_rejected(self, users):
        with pytest.raises(ValueError, match="is not a range of the 50 users"):
            generate(small_spec(num_users=50), users)


class TestPoissonInverse:
    """Trip counts are drawn by inverting the Poisson CDF at one uniform."""

    @pytest.mark.usefixtures("second_half")
    def test_desk_dataset_bytes_unchanged(self, tmp_path):
        # rates below 708 keep the original recurrence draw for draw
        spec = default_spec(num_users=10_000, num_regions=100, seed=7)
        path = tmp_path / "desk.csv"
        generate_csv(path, spec)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "132a5272d0ec0be205bb2809c93070670d57cf7204f106297fc6e6b4ec2a0149")

    @pytest.mark.parametrize("num_users, num_regions, digest", [
        (10_000, 50_000, "590d32ba62f7202f7863dd3d0e09eafb6681ebd4db07de59263a8985b02df0cb"),
        (20_000, 100, "15d26c8a5ca7c72f5e98b70e3e9252bc13947612007dccb29dac9d345ce28fd4"),
    ], ids=["production", "desk-20k"])
    @pytest.mark.usefixtures("second_half")
    def test_dataset_bytes_unchanged_at_more_shapes(self, tmp_path, num_users, num_regions,
                                                    digest):
        # the dpgb generate output of the scalar generator these were recorded from
        spec = default_spec(num_users=num_users, num_regions=num_regions, seed=7)
        path = tmp_path / "data.csv"
        generate_csv(path, spec)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("lam", [745.0, 746.0, 1000.0, 5000.0])
    def test_large_rates(self, lam):
        rng = np.random.default_rng(int(lam))
        us = np.concatenate([[2.0 ** -54, 1e-12], np.sort(rng.random(199)),
                             [1.0 - 2.0 ** -53]])
        draws = _poisson_counts(us, _poisson_table(lam)).tolist()
        assert all(lo <= hi for lo, hi in zip(draws, draws[1:]))  # monotone in u
        assert abs(float(np.median(draws)) - lam) <= 5.0 * math.sqrt(lam)
        assert abs(_poisson_counts(0.5, _poisson_table(lam)) - lam) <= 5.0 * math.sqrt(lam)
        assert draws[-1] < lam + 20.0 * math.sqrt(lam)

    def test_median_within_known_bounds_across_the_switch(self):
        # the Poisson median lies in [lam - ln 2, lam + 1/3]; the recurrence
        # drifted below it once exp(-lam) went subnormal
        for step in range(601):
            lam = 700.0 + step / 10
            median = _poisson_counts(0.5, _poisson_table(lam))
            assert lam - math.log(2) <= median <= lam + 1 / 3, (lam, median)

    @pytest.mark.parametrize("lam", [0.0, 1e-300, 0.3, 4.5, 15.0, 250.0, 707.9, 708.0, 745.0,
                                     1000.0])
    def test_table_equals_the_sequential_search(self, lam):
        # uniforms at, between and beside the table's own entries, plus the
        # extremes, which may lie above every entry
        cdf, _ = _poisson_table(lam)
        rng = np.random.default_rng(3)
        us = np.unique(np.concatenate([
            cdf[cdf < 1.0], np.nextafter(cdf[cdf < 1.0], 0.0), rng.random(300),
            [0.0, 2.0 ** -54, 0.5, 1.0 - 2.0 ** -53]]))
        us = us[(us >= 0.0) & (us < 1.0)]
        if lam > 0.0:  # at lam = 0 every uniform draws 0
            us = np.concatenate([us[:200], us[-200:]])
        assert _poisson_counts(us, _poisson_table(lam)).tolist() == [
            poisson_inverse(u, lam) for u in us.tolist()]

    def test_large_trips_per_user_spec(self):
        data = generate(small_spec(num_users=2, trips_per_user=20_000.0))
        for count in np.diff(data.offsets).tolist():
            assert abs(count - 20_000) <= 5.0 * math.sqrt(20_000)


def truth_cells(truth):
    """{cell: (total, devices)} of a GroundTruth, in first-appearance order."""
    assert np.all(np.diff(truth.flat) > 0)
    order = truth.order
    return {cell_tuple(truth.dims, flat): (total, devices) for flat, total, devices in zip(
        truth.flat[order].tolist(), truth.totals[order].tolist(), truth.devices[order].tolist())}


class TestGroundTruth:
    def test_single_record(self, small_dims):
        data = make_dataset([("u0", (TripRecord(1, 0, 2, 3.0, 60.0),))])
        truth = ground_truth(data, small_dims)
        assert truth_cells(truth) == {
            (0, 0, 1, 2): (1.0, 1), (0, 1, 1, 2): (3.0, 1), (0, 2, 1, 2): (60.0, 1)}

    def test_duplicated_users_double_everything(self, small_dims):
        records = (TripRecord(1, 0, 2, 3.0, 60.0), TripRecord(0, 1, 0, 1.0, 10.0))
        one = truth_cells(ground_truth(make_dataset([("u0", records)]), small_dims))
        two = truth_cells(ground_truth(
            make_dataset([("u0", records), ("u1", records)]), small_dims))
        assert two == {cell: (2 * total, 2 * n) for cell, (total, n) in one.items()}

    def test_matches_fold_of_user_histograms(self, monkeypatch):
        # the dict reference, bit for bit and in the same first-appearance
        # order, with zero-valued cells left out, across block boundaries
        spec = small_spec()
        data = generate(spec)
        users = [(uid, list(recs) + [TripRecord(0, 1, 2, 0.0, 5.0)] * (i % 3 == 0))
                 for i, (uid, recs) in enumerate(users_of(data))]
        data = make_dataset(users)
        expected, devices = reference_ground_truth(data, spec.dims)
        for block_records in (1 << 15, 1 << 13, 100, 1):
            monkeypatch.setattr(schema, "_BLOCK_RECORDS", block_records)
            truth = ground_truth(data, spec.dims)
            assert list(truth_cells(truth).items()) == [
                (cell, (value, devices[cell])) for cell, value in expected.cells.items()]
        assert truth.devices.max() <= data.num_users

    def test_empty_dataset(self, small_dims):
        truth = ground_truth(make_dataset([]), small_dims)
        assert truth.flat.size == truth.totals.size == truth.devices.size == 0
        truth = ground_truth(make_dataset([("u0", ()), ("u1", ())]), small_dims)
        assert truth.flat.size == 0


class TestSpecFile:
    def test_read_generator_spec(self, tmp_path):
        path = tmp_path / "gen.cfg"
        path.write_text(
            "num_users = 42\nnum_regions = 7\nseed = 3\n"
            "trips_per_user = 4.0\n")
        spec = read_generator_spec(path)
        assert spec.num_users == 42
        assert spec.dims.num_regions == 7
        assert spec.seed == 3
        assert spec.trips_per_user == 4.0
        assert len(spec.activity_profiles) == 9  # packaged default table

    def test_mandatory_keys_alone_give_the_field_defaults(self, tmp_path):
        path = tmp_path / "gen.cfg"
        path.write_text("num_users = 42\nnum_regions = 7\nseed = 3\n")
        profiles = default_profiles()
        assert read_generator_spec(path) == GeneratorSpec(
            num_users=42, dims=Dimensions(num_activities=len(profiles), num_regions=7),
            activity_profiles=profiles, seed=3)

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
