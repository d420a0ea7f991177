import math

import numpy as np
import pytest

from dpgb.schema import (
    METRIC_NAMES,
    ConfigError,
    Dimensions,
    MechanismConfig,
    ScaleMatrix,
    SparseHistogram,
    TripRecord,
    WeekDataset,
    infer_dimensions,
    read_histogram_csv,
    read_mechanism_config,
    read_records_csv,
    write_histogram_csv,
    write_mechanism_config,
    write_records_csv,
)
from conftest import random_histogram, random_records, raw_histogram


class TestDimensions:
    def test_fixed_axes_enforced(self):
        with pytest.raises(ConfigError):
            Dimensions(num_metrics=4)
        with pytest.raises(ConfigError):
            Dimensions(num_directions=2)
        with pytest.raises(ConfigError):
            Dimensions(num_activities=0)

    def test_total_cells(self):
        assert Dimensions(num_activities=9, num_regions=100).total_cells == 9 * 3 * 100 * 3

    def test_first_and_last_cell(self):
        dims = Dimensions(num_activities=9, num_regions=100)
        assert dims.cell_index(0, 0, 0, 0) == 0
        assert dims.cell_index(8, 2, 99, 2) == dims.total_cells - 1

    def test_out_of_range_raises(self):
        dims = Dimensions(num_activities=2, num_regions=4)
        for bad in [(2, 0, 0, 0), (0, 3, 0, 0), (0, 0, 4, 0), (0, 0, 0, 3), (-1, 0, 0, 0)]:
            with pytest.raises(IndexError):
                dims.cell_index(*bad)
        with pytest.raises(IndexError):
            dims.cell_tuple(dims.total_cells)

    def test_roundtrip_exhaustive_small(self):
        dims = Dimensions(num_activities=2, num_regions=5)
        seen = set()
        for a in range(2):
            for m in range(3):
                for r in range(5):
                    for d in range(3):
                        flat = dims.cell_index(a, m, r, d)
                        assert dims.cell_tuple(flat) == (a, m, r, d)
                        seen.add(flat)
        assert seen == set(range(dims.total_cells))  # bijection onto [0, total)

    def test_roundtrip_random_desk_dims(self, rng):
        dims = Dimensions(num_activities=9, num_regions=100)
        for _ in range(1000):
            cell = (int(rng.integers(9)), int(rng.integers(3)),
                    int(rng.integers(100)), int(rng.integers(3)))
            assert dims.cell_tuple(dims.cell_index(*cell)) == cell


class TestTripRecord:
    def test_rejects_negative_values(self):
        with pytest.raises(ValueError):
            TripRecord(0, 0, 0, -1.0, 10.0)
        with pytest.raises(ValueError):
            TripRecord(0, 0, 0, 1.0, -10.0)
        with pytest.raises(ValueError):
            TripRecord(-1, 0, 0, 1.0, 10.0)
        with pytest.raises(ValueError):
            TripRecord(0, 0, 0, math.nan, 10.0)

    def test_validate_bounds(self, small_dims):
        TripRecord(3, 1, 2, 1.0, 2.0).validate(small_dims)
        with pytest.raises(ValueError):
            TripRecord(4, 1, 2, 1.0, 2.0).validate(small_dims)
        with pytest.raises(ValueError):
            TripRecord(3, 2, 2, 1.0, 2.0).validate(small_dims)


class TestWeekDataset:
    def test_duplicate_user_rejected(self):
        with pytest.raises(ConfigError):
            WeekDataset("w", (("u1", ()), ("u1", ())))

    def test_zero_record_users_allowed(self):
        data = WeekDataset("w", (("u1", ()),))
        assert data.num_users == 1 and data.num_records == 0


class TestUserHistogram:
    def test_empty(self, small_dims):
        assert raw_histogram([], small_dims).cells == {}

    def test_single_record(self, small_dims):
        hist = raw_histogram([TripRecord(2, 1, 0, 3.5, 600.0)], small_dims)
        assert hist.cells == {(1, 0, 2, 0): 1.0, (1, 1, 2, 0): 3.5, (1, 2, 2, 0): 600.0}

    def test_same_cell_accumulates(self, small_dims):
        recs = [TripRecord(1, 0, 1, 1.0, 10.0), TripRecord(1, 0, 1, 2.0, 20.0)]
        hist = raw_histogram(recs, small_dims)
        assert hist.get((0, 0, 1, 1)) == 2.0
        assert hist.get((0, 1, 1, 1)) == 3.0
        assert hist.get((0, 2, 1, 1)) == 30.0

    def test_concat_is_additive(self, small_dims, rng):
        for _ in range(50):
            a = random_records(rng, small_dims, int(rng.integers(0, 10)))
            b = random_records(rng, small_dims, int(rng.integers(0, 10)))
            combined = raw_histogram(a + b, small_dims)
            merged = raw_histogram(a, small_dims).add(raw_histogram(b, small_dims))
            assert combined.allclose(merged, rel_tol=1e-12)

    def test_out_of_bounds_record_raises(self, small_dims):
        with pytest.raises(ValueError):
            raw_histogram([TripRecord(99, 0, 0, 1.0, 1.0)], small_dims)


class TestSparseHistogram:
    def test_from_cells_drops_zeros_and_checks_bounds(self, small_dims):
        hist = SparseHistogram.from_cells(small_dims, {(0, 0, 0, 0): 0.0, (1, 1, 1, 1): 2.0})
        assert hist.cells == {(1, 1, 1, 1): 2.0}
        with pytest.raises(IndexError):
            SparseHistogram.from_cells(small_dims, {(9, 0, 0, 0): 1.0})

    def test_merge_assoc_comm(self, small_dims, rng):
        for _ in range(30):
            a = random_histogram(rng, small_dims)
            b = random_histogram(rng, small_dims)
            c = random_histogram(rng, small_dims)
            assert a.add(b).allclose(b.add(a), rel_tol=1e-9)
            assert a.add(b).add(c).allclose(a.add(b.add(c)), rel_tol=1e-9)

    def test_merge_cancellation_leaves_no_zero(self, small_dims):
        a = SparseHistogram(small_dims, {(0, 0, 0, 0): 1.5})
        b = SparseHistogram(small_dims, {(0, 0, 0, 0): -1.5})
        assert a.add(b).cells == {}

    def test_dense_roundtrip(self, small_dims, rng):
        hist = random_histogram(rng, small_dims)
        dense = hist.to_dense()
        back = {small_dims.cell_tuple(int(i)): float(dense[i]) for i in np.flatnonzero(dense)}
        assert back == hist.cells

    def test_l1_norm(self, small_dims):
        hist = SparseHistogram(small_dims, {(0, 0, 0, 0): -3.0, (1, 1, 1, 1): 1.0})
        assert hist.l1_norm() == 4.0

    def test_dims_mismatch(self, small_dims):
        other = Dimensions(num_activities=3, num_regions=4)
        with pytest.raises(ValueError):
            SparseHistogram.empty(small_dims).add(SparseHistogram.empty(other))


class TestScaleMatrix:
    def test_rejects_non_positive(self):
        with pytest.raises(ConfigError):
            ScaleMatrix(np.array([[1.0, 0.0, 1.0]]))
        with pytest.raises(ConfigError):
            ScaleMatrix(np.array([[1.0, -2.0, 1.0]]))

    def test_per_cell_layout(self, small_dims):
        entries = np.arange(1, 7, dtype=float).reshape(2, 3)
        flat = ScaleMatrix(entries).per_cell(small_dims)
        for a in range(2):
            for m in range(3):
                for r in range(4):
                    for d in range(3):
                        assert flat[small_dims.cell_index(a, m, r, d)] == entries[a, m]

    def test_ones(self):
        assert ScaleMatrix.ones(5).is_ones()


class TestMechanismConfig:
    def test_validation(self):
        ones = ScaleMatrix.ones(2)
        with pytest.raises(ConfigError):
            MechanismConfig(0.0, "joint_clipping", 1.0, ones, 0.0, 1)
        with pytest.raises(ConfigError):
            MechanismConfig(1.0, "nope", 1.0, ones, 0.0, 1)
        with pytest.raises(ConfigError):
            MechanismConfig(1.0, "joint_clipping", -1.0, ones, 0.0, 1)
        with pytest.raises(ConfigError):
            MechanismConfig(1.0, "joint_clipping", 1.0, ones, -0.5, 1)
        # budget_split needs a grid, baselines need all-ones scales
        with pytest.raises(ConfigError):
            MechanismConfig(1.0, "budget_split", 1.0, ones, 0.0, 1)
        not_ones = ScaleMatrix(np.full((2, 3), 2.0))
        with pytest.raises(ConfigError):
            MechanismConfig(1.0, "joint_clipping", 1.0, not_ones, 0.0, 1)
        MechanismConfig(1.0, "budget_split", np.ones((2, 3)), ones, 0.0, 1)
        MechanismConfig(1.0, "activity_metric_scaling", 1.0, not_ones, 0.0, 1)


class TestFileFormats:
    def test_records_roundtrip_bytes(self, tmp_path, small_dims, rng):
        users = [(f"u{i}", tuple(random_records(rng, small_dims, 3))) for i in range(5)]
        data = WeekDataset("w1", tuple(users))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_records_csv(p1, data)
        back = read_records_csv(p1, week_id="w1")
        assert back == data
        write_records_csv(p2, back)
        assert p1.read_bytes() == p2.read_bytes()

    def test_records_bad_header(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("nope\n")
        with pytest.raises(ConfigError):
            read_records_csv(p)

    def test_records_bad_row(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("user_id,region,activity,direction,distance_km,duration_s\nu1,0,0,0,-3,1\n")
        with pytest.raises(ConfigError):
            read_records_csv(p)

    def test_histogram_roundtrip(self, tmp_path, small_dims, rng):
        hist = random_histogram(rng, small_dims)
        path = tmp_path / "h.csv"
        write_histogram_csv(path, hist.to_dense(), small_dims)
        assert np.array_equal(read_histogram_csv(path, small_dims), hist.to_dense())

    def test_histogram_rejects_out_of_bounds(self, tmp_path, small_dims):
        path = tmp_path / "h.csv"
        path.write_text("activity,metric,region,direction,value\n5,num_trips,0,0,1.0\n")
        with pytest.raises(ConfigError):
            read_histogram_csv(path, small_dims)

    def test_mechanism_config_roundtrip(self, tmp_path):
        cfg = MechanismConfig(2.0, "activity_metric_scaling", 5.25,
                              ScaleMatrix(np.full((2, 3), 3.5)), 1.0, 42)
        path = tmp_path / "m.cfg"
        write_mechanism_config(path, cfg)
        back = read_mechanism_config(path)
        assert back.epsilon == cfg.epsilon
        assert back.mechanism_kind == cfg.mechanism_kind
        assert back.clip == cfg.clip
        assert np.array_equal(back.scales.entries, cfg.scales.entries)
        assert back.threshold_tau == cfg.threshold_tau
        assert back.rng_seed == cfg.rng_seed

    def test_budget_split_config_roundtrip(self, tmp_path):
        grid = np.arange(1, 7, dtype=float).reshape(2, 3)
        cfg = MechanismConfig(2.0, "budget_split", grid, ScaleMatrix.ones(2), 0.0, 7)
        path = tmp_path / "m.cfg"
        write_mechanism_config(path, cfg)
        assert np.array_equal(read_mechanism_config(path).clip, grid)

    def test_config_missing_key(self, tmp_path):
        path = tmp_path / "m.cfg"
        path.write_text("mechanism_kind = joint_clipping\nepsilon = 1.0\n")
        with pytest.raises(ConfigError):
            read_mechanism_config(path)


def test_infer_dimensions():
    recs = (TripRecord(7, 2, 1, 1.0, 1.0),)
    data = WeekDataset("w", (("u1", recs),))
    dims = infer_dimensions([data])
    assert dims.num_regions == 8 and dims.num_activities == 3
    dims = infer_dimensions([data], num_activities=9, num_regions=50)
    assert dims.num_regions == 50 and dims.num_activities == 9


def test_infer_dimensions_overrides_skip_the_records():
    class Unreadable:
        users = property(lambda self: pytest.fail("infer_dimensions read the records"))

        def __iter__(self):
            pytest.fail("infer_dimensions iterated the datasets")

    dims = infer_dimensions(Unreadable(), num_activities=9, num_regions=50)
    assert dims == Dimensions(num_activities=9, num_regions=50)
    dims = infer_dimensions([Unreadable()], num_activities=2, num_regions=7)
    assert dims == Dimensions(num_activities=2, num_regions=7)


class TestDenseHistogramFiles:
    """The release file boundary: a dense vector in cell_index order."""

    def test_edge_values_roundtrip_and_clamped_zero_omitted(self, tmp_path, small_dims):
        dense = np.zeros(small_dims.total_cells)
        edges = {3: 5e-324, 10: 0.1 + 0.2, 40: 1e300}
        for flat, value in edges.items():
            dense[flat] = value
        dense[20] = np.maximum(-2.5, 0.0)  # clamped by the release tail
        path = tmp_path / "h.csv"
        write_histogram_csv(path, dense, small_dims)
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + len(edges)
        back = read_histogram_csv(path, small_dims)
        assert back.tobytes() == dense.tobytes()  # bit for bit
        for flat, value in edges.items():
            assert back[flat] == value

    def test_rows_are_repr_formatted_in_flat_order(self, tmp_path, rng):
        # more cells than one write block, so rows cross a block boundary
        dims = Dimensions(num_activities=9, num_regions=2500)
        dense = np.zeros(dims.total_cells)
        flats = np.sort(rng.choice(dims.total_cells, size=300, replace=False))
        dense[flats] = rng.lognormal(0.0, 3.0, size=flats.size)
        path = tmp_path / "h.csv"
        write_histogram_csv(path, dense, dims)
        expected = ["activity,metric,region,direction,value"]
        for flat in flats.tolist():
            a, m, r, d = dims.cell_tuple(flat)
            expected.append(f"{a},{METRIC_NAMES[m]},{r},{d},{float(dense[flat])!r}")
        assert path.read_bytes() == ("\r\n".join(expected) + "\r\n").encode()

    def test_writer_rejects_wrong_length(self, tmp_path, small_dims):
        with pytest.raises(ValueError):
            write_histogram_csv(tmp_path / "h.csv", np.zeros(5), small_dims)

    @pytest.mark.parametrize("body, lineno, message", [
        ("0,num_trips,0,0,1.0\n0,num_trips,1\n", 3, "expected 5 fields, got 3"),
        ("0,speed,0,0,1.0\n", 2, "unknown metric 'speed'"),
        ("0,7,0,0,1.0\n", 2, "metric index out of range: 7"),
        ("0,num_trips,x,0,1.0\n", 2, "invalid literal for int() with base 10: 'x'"),
        ("0,num_trips,0,0,abc\n", 2, "could not convert string to float: 'abc'"),
        ("\n1,distance,2,1,4.0\n5,num_trips,0,0,1.0\n", 4,
         "cell (5, 0, 0, 0) out of bounds for Dimensions(num_activities=2, num_regions=4, "
         "num_metrics=3, num_directions=3)"),
        ("0,duration,1,2,1.0\n0,2,1,2,3.0\n", 3, "duplicate cell (0, 2, 1, 2)"),
        ("0,num_trips,0,0,0.0\n0,num_trips,0,0,5.0\n", 3, "duplicate cell (0, 0, 0, 0)"),
    ])
    def test_reader_errors_keep_messages_and_line_numbers(
            self, tmp_path, small_dims, body, lineno, message):
        path = tmp_path / "h.csv"
        path.write_text("activity,metric,region,direction,value\n" + body)
        with pytest.raises(ConfigError) as excinfo:
            read_histogram_csv(path, small_dims)
        assert str(excinfo.value) == f"{path}:{lineno}: {message}"

    def test_reader_bad_header(self, tmp_path, small_dims):
        path = tmp_path / "h.csv"
        path.write_text("a,b\n")
        with pytest.raises(ConfigError) as excinfo:
            read_histogram_csv(path, small_dims)
        assert str(excinfo.value) == (
            f"{path}: bad header ['a', 'b'], expected "
            "['activity', 'metric', 'region', 'direction', 'value']")

    def test_reader_drops_zero_rows_and_accepts_metric_index(self, tmp_path, small_dims):
        path = tmp_path / "h.csv"
        path.write_text("activity,metric,region,direction,value\n"
                        "1,1,3,2,2.5\n0,num_trips,0,0,0.0\n0,num_trips,0,1,-0.0\n")
        back = read_histogram_csv(path, small_dims)
        assert np.count_nonzero(back) == 1
        assert back[small_dims.cell_index(1, 1, 3, 2)] == 2.5
        assert np.signbit(back).sum() == 0  # a -0.0 row reads as an absent cell
