import csv
import math
import os
import tracemalloc

import numpy as np
import pytest

from dpgb import schema
from dpgb.datagen import generate
from dpgb.schema import (
    METRIC_NAMES,
    ConfigError,
    Dimensions,
    MechanismConfig,
    ScaleMatrix,
    WeekDataset,
    read_histogram_csv,
    read_mechanism_config,
    read_records_csv,
    user_cells,
    write_histogram_csv,
    write_mechanism_config,
)
from conftest import default_spec, one_user, random_dataset, random_histogram, random_records
from sparse_reference import (
    SparseHistogram,
    TripRecord,
    block_histograms,
    cell_tuple,
    make_dataset,
    same_dataset,
    user_histogram,
    users_of,
    write_records_csv,
)

RECORD_CSV_HEADER = ["user_id", "region", "activity", "direction", "distance_km", "duration_s"]
NEGATIVE_ACTIVITY = "negative index in record (region=0, activity=-1, direction=0)"
# the ends of the magnitudes that _float_texts leaves to orjson, each with its
# two neighbours
FORMAT_BOUNDS = [float(v) for x in (1e-4, 1e16)
                 for v in (np.nextafter(x, 0.0), x, np.nextafter(x, math.inf))]


def csv_writer_histogram(path, dense, dims):
    """The histogram file as ``csv.writer`` writes its rows: the reference
    for ``write_histogram_csv``'s bytes."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["activity", "metric", "region", "direction", "value"])
        for flat in np.flatnonzero(dense).tolist():
            a, m, r, d = cell_tuple(dims, flat)
            writer.writerow([a, METRIC_NAMES[m], r, d, dense[flat].item()])


def csv_writer_records(path, data):
    """The records file as ``csv.writer`` writes its rows: the reference
    for ``write_records_csv``'s bytes."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(RECORD_CSV_HEADER)
        for uid, records in users_of(data):
            writer.writerows((uid, *rec) for rec in records)


def user_records(data):
    return [(uid, [tuple(rec) for rec in records]) for uid, records in users_of(data)]


def vector(records, dims, scales=None):
    """The one user's vector that user_cells makes of ``records``."""
    scales = scales if scales is not None else ScaleMatrix.ones(dims.num_activities)
    vectors = block_histograms(user_cells(one_user(records), dims, scales), dims)
    return vectors.get(0, SparseHistogram.empty(dims))


class TestDimensions:
    def test_fixed_axes_enforced(self):
        with pytest.raises(ConfigError):
            Dimensions(num_activities=0, num_regions=100)

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
            cell_tuple(dims, dims.total_cells)

    def test_roundtrip_exhaustive_small(self):
        dims = Dimensions(num_activities=2, num_regions=5)
        seen = set()
        for a in range(2):
            for m in range(3):
                for r in range(5):
                    for d in range(3):
                        flat = dims.cell_index(a, m, r, d)
                        assert cell_tuple(dims, flat) == (a, m, r, d)
                        seen.add(flat)
        assert seen == set(range(dims.total_cells))  # bijection onto [0, total)

    def test_roundtrip_random_desk_dims(self, rng):
        dims = Dimensions(num_activities=9, num_regions=100)
        for _ in range(1000):
            cell = (int(rng.integers(9)), int(rng.integers(3)),
                    int(rng.integers(100)), int(rng.integers(3)))
            assert cell_tuple(dims, dims.cell_index(*cell)) == cell


class TestTripRecord:
    """Every record is checked when a dataset is built from its columns."""

    def test_rejects_negative_values(self):
        for bad, message in [
            (TripRecord(0, 0, 0, -1.0, 10.0), "distance_km must be finite and >= 0, got -1.0"),
            (TripRecord(0, 0, 0, 1.0, -10.0), "duration_s must be finite and >= 0, got -10.0"),
            (TripRecord(-1, 0, 0, 1.0, 10.0),
             "negative index in record (region=-1, activity=0, direction=0)"),
            (TripRecord(0, 0, 0, math.nan, 10.0), "distance_km must be finite and >= 0, got nan"),
            (TripRecord(0, 0, 0, 1.0, math.inf), "duration_s must be finite and >= 0, got inf"),
        ]:
            good = TripRecord(1, 1, 1, 1.0, 1.0)
            with pytest.raises(ValueError) as excinfo:
                make_dataset([("a", [good]), ("b", [good, bad])])
            assert str(excinfo.value) == message

    def test_validate_bounds(self, small_dims):
        vector([TripRecord(3, 1, 2, 1.0, 2.0)], small_dims)
        for bad in (TripRecord(4, 1, 2, 1.0, 2.0), TripRecord(3, 2, 2, 1.0, 2.0),
                    TripRecord(3, 1, 3, 1.0, 2.0)):
            with pytest.raises(ValueError) as excinfo:
                vector([TripRecord(0, 0, 0, 1.0, 1.0), bad], small_dims)
            assert str(excinfo.value) == (
                f"record (region={bad.region}, activity={bad.activity}, "
                f"direction={bad.direction}) out of bounds for {small_dims}")


class TestWeekDataset:
    def test_duplicate_user_rejected(self):
        with pytest.raises(ConfigError):
            make_dataset([("u1", ()), ("u1", ())])

    def test_zero_record_users_allowed(self):
        data = make_dataset([("u1", ())])
        assert data.num_users == 1 and data.num_records == 0

    def test_columns_must_match_the_offsets(self):
        with pytest.raises(ValueError):
            WeekDataset(("a", "b"), [0, 2, 1], [0], [0], [0], [1.0], [1.0])
        with pytest.raises(ValueError):
            WeekDataset(("a",), [0, 1], [0, 0], [0], [0], [1.0], [1.0])


class TestUserHistogram:
    """user_cells, the one records-to-cells path, against the dict reference."""

    def test_empty(self, small_dims):
        assert vector([], small_dims).cells == {}

    def test_single_record(self, small_dims):
        hist = vector([TripRecord(2, 1, 0, 3.5, 600.0)], small_dims)
        assert hist.cells == {(1, 0, 2, 0): 1.0, (1, 1, 2, 0): 3.5, (1, 2, 2, 0): 600.0}

    def test_same_cell_accumulates(self, small_dims):
        recs = [TripRecord(1, 0, 1, 1.0, 10.0), TripRecord(1, 0, 1, 2.0, 20.0)]
        hist = vector(recs, small_dims)
        assert hist.get((0, 0, 1, 1)) == 2.0
        assert hist.get((0, 1, 1, 1)) == 3.0
        assert hist.get((0, 2, 1, 1)) == 30.0

    def test_concat_is_additive(self, small_dims, rng):
        for _ in range(50):
            a = random_records(rng, small_dims, int(rng.integers(0, 10)))
            b = random_records(rng, small_dims, int(rng.integers(0, 10)))
            combined = vector(a + b, small_dims)
            merged = vector(a, small_dims).add(vector(b, small_dims))
            assert combined.allclose(merged, rel_tol=1e-12)

    def test_out_of_bounds_record_raises(self, small_dims):
        with pytest.raises(ValueError):
            vector([TripRecord(99, 0, 0, 1.0, 1.0)], small_dims)

    def test_rows_equal_the_reference_bit_for_bit(self, small_dims, rng, monkeypatch):
        # blocks of about 10 records split the fleet at user boundaries;
        # zero-valued sums get no row, as the reference drops them
        monkeypatch.setattr(schema, "_BLOCK_RECORDS", 10)
        users = [(uid, list(recs) + [TripRecord(0, 1, 2, 0.0, 0.0)] * (i % 2))
                 for i, (uid, recs) in enumerate(users_of(random_dataset(rng, small_dims, 60)))]
        users[7:7] = [  # two records in one cell; a zero record inside an activity's cells
            ("twice", [TripRecord(1, 0, 1, 1.0, 10.0), TripRecord(2, 1, 0, 3.0, 5.0),
                       TripRecord(1, 0, 1, 2.0, 20.0)]),
            ("zero", [TripRecord(3, 1, 2, 2.5, 90.0), TripRecord(2, 1, 1, 0.0, 0.0),
                      TripRecord(0, 1, 0, 1.5, 60.0)])]
        data = make_dataset(users)
        scales = ScaleMatrix(np.exp(rng.normal(0, 2, size=(small_dims.num_activities, 3))))
        blocks = list(user_cells(data, small_dims, scales))
        assert len(blocks) > 10
        vectors = block_histograms(blocks, small_dims)
        for i, (_, records) in enumerate(users):
            expected = user_histogram(records, small_dims, scales)
            got = vectors.get(i, SparseHistogram.empty(small_dims))
            assert got.cells == expected.cells  # values equal bit for bit
            # first orders a user's rows as the reference dict does
            rows = [(int(block.first[k]), cell_tuple(small_dims, int(block.cell[k])))
                    for block in blocks for k in np.flatnonzero(block.user == i)]
            assert [cell for _, cell in sorted(rows)] == list(expected.cells)
        # blocks hold whole users in order; starts delimit each user's rows,
        # which rise by (user, cell); a row's first is 3 x (block-local index
        # of the user's first record in the cell) + metric
        first_user = 0
        for block in blocks:
            users_in_block = block.starts.size - 1
            owners = np.repeat(np.arange(users_in_block), np.diff(block.starts))
            assert np.array_equal(block.user, first_user + owners)
            assert np.all(np.diff(block.user * small_dims.total_cells + block.cell) > 0)
            for user, cell, first in zip(*(column.tolist() for column in (
                    block.user, block.cell, block.first))):
                a, m, r, d = cell_tuple(small_dims, cell)
                record = next(k for k, rec in enumerate(users[user][1])
                              if (rec.activity, rec.region, rec.direction) == (a, r, d))
                record += int(data.offsets[user] - data.offsets[first_user])
                assert first == 3 * record + m
            first_user += users_in_block
        assert first_user == data.num_users


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
        back = {cell_tuple(small_dims, int(i)): float(dense[i]) for i in np.flatnonzero(dense)}
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
        # every cell of slice (a, m) is divided by entries[a, m]
        entries = np.arange(1, 7, dtype=float).reshape(2, 3)
        records = [TripRecord(r, a, d, 1.0, 1.0)
                   for a in range(2) for r in range(4) for d in range(3)]
        hist = vector(records, small_dims, ScaleMatrix(entries))
        assert len(hist) == small_dims.total_cells
        for (a, m, _, _), value in hist.cells.items():
            assert value == 1.0 / entries[a, m]

    def test_ones(self):
        assert np.array_equal(ScaleMatrix.ones(5).entries, np.ones((5, 3)))


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
        with pytest.raises(ConfigError, match="rng_seed must be >= 0, got -1"):
            MechanismConfig(1.0, "joint_clipping", 1.0, ones, 0.0, -1)
        MechanismConfig(1.0, "joint_clipping", 1.0, ones, 0.0, 0)
        # budget_split needs a grid, baselines need all-ones scales
        with pytest.raises(ConfigError):
            MechanismConfig(1.0, "budget_split", 1.0, ones, 0.0, 1)
        not_ones = ScaleMatrix(np.full((2, 3), 2.0))
        with pytest.raises(ConfigError):
            MechanismConfig(1.0, "joint_clipping", 1.0, not_ones, 0.0, 1)
        one_off = ScaleMatrix(np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 1.5]]))
        with pytest.raises(ConfigError, match="requires an all-ones scale matrix"):
            MechanismConfig(1.0, "budget_split", np.ones((2, 3)), one_off, 0.0, 1)
        MechanismConfig(1.0, "budget_split", np.ones((2, 3)), ones, 0.0, 1)
        MechanismConfig(1.0, "activity_metric_scaling", 1.0, not_ones, 0.0, 1)


class TestFileFormats:
    @pytest.mark.usefixtures("second_half")
    def test_records_roundtrip_bytes(self, tmp_path, small_dims, rng):
        users = [(f"u{i}", tuple(random_records(rng, small_dims, 3))) for i in range(5)]
        data = make_dataset(users)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_records_csv(p1, data)
        back = read_records_csv(p1)
        assert same_dataset(back, data)
        write_records_csv(p2, back)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.usefixtures("second_half")
    def test_records_bad_header(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("nope\n")
        with pytest.raises(ConfigError):
            read_records_csv(p)

    @pytest.mark.usefixtures("second_half")
    def test_records_bad_row(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("user_id,region,activity,direction,distance_km,duration_s\nu1,0,0,0,-3,1\n")
        with pytest.raises(ConfigError):
            read_records_csv(p)

    # the CLI sets no warning filter, so a DeprecationWarning numpy gives
    # instead of an error (a decimal in an index column) would be dropped
    @pytest.mark.filterwarnings("ignore::DeprecationWarning")
    @pytest.mark.parametrize("body, lineno, message", [
        ("u1,0,0,0,1.0,2.0\n\nu1,0,0\n", 4, "expected 6 fields, got 3"),
        ("\nu1,0,0,0,1.0,2.0,7\n", 3, "expected 6 fields, got 7"),
        ("\n  \n", 3, "expected 6 fields, got 1"),
        ("u1,0,0,0,1.0,2.0\n\nu2,x,0,0,1.0,2.0\n", 4,
         "invalid literal for int() with base 10: 'x'"),
        ("\nu1,0,0,1.5,1.0,2.0\n", 3, "invalid literal for int() with base 10: '1.5'"),
        ("\nu1,-0.5,0,0,1.0,2.0\n", 3, "invalid literal for int() with base 10: '-0.5'"),
        ("\nu1,0,1e3,0,1.0,2.0\n", 3, "invalid literal for int() with base 10: '1e3'"),
        ("\nu1,0,0,0,abc,2.0\n", 3, "could not convert string to float: 'abc'"),
        ("\nu1,0,0,0,1.0,\n", 3, "could not convert string to float: ''"),
        ("\nu1,0,-1,0,1.0,2.0\n", 3, NEGATIVE_ACTIVITY),
        ("\nu1,0,0,0,-3,2.0\n", 3, "distance_km must be finite and >= 0, got -3.0"),
        ("\nu1,0,0,0,nan,2.0\n", 3, "distance_km must be finite and >= 0, got nan"),
        ("\nu1,0,0,0,inf,2.0\n", 3, "distance_km must be finite and >= 0, got inf"),
        ("\nu1,0,0,0,1.0,-0.5\n", 3, "duration_s must be finite and >= 0, got -0.5"),
        ("\nu1,0,0,0,1.0,NaN\n", 3, "duration_s must be finite and >= 0, got nan"),
        ("\nu1,0,0,0,1.0,-inf\n", 3, "duration_s must be finite and >= 0, got -inf"),
        # the first bad line wins, whatever the kind of a later one
        ("u1,0,0,0,1.0,2.0\n\nu2,0,0,0,-1.0,2.0\n\nu3,y,0,0,1.0,2.0\n", 4,
         "distance_km must be finite and >= 0, got -1.0"),
        ("u1,0,0,0,1.0,2.0\n\nu2,0,0,0,1.0,2.0\n\nu2,0,0,0,1.0,inf\nu3,0,0,0,-2,2\n", 6,
         "duration_s must be finite and >= 0, got inf"),
        # within one line, a negative index is reported before a bad distance
        ("\nu1,0,-1,0,nan,2.0\n", 3, NEGATIVE_ACTIVITY),
    ])
    @pytest.mark.usefixtures("second_half")
    def test_records_reader_errors_keep_messages_and_line_numbers(
            self, tmp_path, body, lineno, message):
        path = tmp_path / "records.csv"
        path.write_text(",".join(RECORD_CSV_HEADER) + "\n" + body)
        with pytest.raises(ConfigError) as excinfo:
            read_records_csv(path)
        assert str(excinfo.value) == f"{path}:{lineno}: {message}"

    @pytest.mark.usefixtures("second_half")
    def test_records_reader_takes_plain_numbers_only(self, tmp_path):
        # spellings Python's int() accepts but the C parser does not, and
        # indices past int64, are rejected rather than read
        path = tmp_path / "records.csv"
        header = ",".join(RECORD_CSV_HEADER) + "\n"
        path.write_text(header + "u1,0,0,0,1.0,2.0\nu2,1_0,0,0,1.0,2.0\n")
        with pytest.raises(ConfigError) as excinfo:
            read_records_csv(path)
        assert str(excinfo.value).startswith(f"{path}: could not convert string '1_0' to int64")
        path.write_text(header + "\nu1,0,0,99999999999999999999,1.0,2.0\n")
        with pytest.raises(ConfigError) as excinfo:
            read_records_csv(path)
        assert str(excinfo.value).startswith(f"{path}:3: ")
        # the parse reads the file as latin-1, so whitespace outside ASCII
        # around a number is no whitespace to it
        path.write_text(header + "u1,0,0,0,1.0　,2.0\n", encoding="utf-8")
        with pytest.raises(ConfigError) as excinfo:
            read_records_csv(path)
        assert str(excinfo.value).startswith(f"{path}: could not convert string")

    @pytest.mark.parametrize("text, header", [
        ("nope\nu1,0,0,0,1.0,2.0\n", ["nope"]),
        ("\n" + ",".join(RECORD_CSV_HEADER) + "\n", []),
        ("user_id,region\n", ["user_id", "region"]),
        ("", None),
    ])
    @pytest.mark.usefixtures("second_half")
    def test_records_reader_bad_header(self, tmp_path, text, header):
        path = tmp_path / "records.csv"
        path.write_text(text)
        with pytest.raises(ConfigError) as excinfo:
            read_records_csv(path)
        assert str(excinfo.value) == (
            f"{path}: bad header {header!r}, expected {RECORD_CSV_HEADER}")

    @pytest.mark.usefixtures("second_half")
    def test_user_ids_and_record_order_survive_a_round_trip(self, tmp_path):
        # ids of 1 and 40 characters, with a comma, a double quote and
        # non-ASCII letters; "a,b" and 'say "hi"' are interleaved in the file
        long_id = "v" * 40
        rows = [
            ("x", 0, 0, 0, 1.5, 10.0),
            ("a,b", 1, 1, 2, 2.5, 20.0),
            ('say "hi"', 2, 0, 1, 3.5, 30.0),
            ("a,b", 3, 1, 0, 0.1 + 0.2, 40.0),
            ('say "hi"', 0, 1, 1, 1e300, 5e-324),
            (long_id, 1, 0, 2, 0.0, 0.0),
            ("Zoë", 2, 1, 0, 7.0, 70.0),
            ("a,b", 0, 0, 0, 8.0, 80.0),
            ('é,"q"', 1, 1, 1, 9.0, 90.0),
        ]
        src = tmp_path / "interleaved.csv"
        with open(src, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(RECORD_CSV_HEADER)
            writer.writerows(rows)
        data = read_records_csv(src)
        order = ["x", "a,b", 'say "hi"', long_id, "Zoë", 'é,"q"']
        assert data.num_users == len(order) and data.num_records == len(rows)
        users = [(uid, [tuple(rec) for rec in records]) for uid, records in user_records(data)]
        assert users == [(uid, [row[1:] for row in rows if row[0] == uid]) for uid in order]

        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        write_records_csv(first, data)
        again = read_records_csv(first)
        assert [(uid, list(recs)) for uid, recs in user_records(again)] == [
            (uid, list(recs)) for uid, recs in user_records(data)]
        write_records_csv(second, again)
        assert first.read_bytes() == second.read_bytes()
        text = first.read_bytes().decode("utf-8")
        assert '"a,b",' in text and '"say ""hi""",' in text and '"é,""q""",' in text
        assert f"\r\n{long_id},1,0,2,0.0,0.0\r\n" in text

    @pytest.mark.usefixtures("second_half")
    def test_user_ids_keep_their_bytes(self, tmp_path):
        # ids outside latin-1; of 15, 16, 17, 40 and 70 UTF-8 bytes (the
        # bytes column starts 16 wide); sharing their first 16 or 39 bytes;
        # empty; with a comma, a quote, a line break or spaces
        ids = ["€uro", "中文", "😀", "a" * 15, "b" * 16, "c" * 17, "d" * 40, "z" * 70,
               "p" * 16 + "x", "p" * 16 + "y", "d" * 39 + "e", "é" * 8, "é" * 7 + "e",
               "", "a,b", 'q"', "line\nbreak", " pad "]
        picks = [0, 1, 0, 2, 3, 1] + list(range(len(ids))) + [5, 4, 3, 12, 0]  # interleaved
        rows = [(ids[k], i % 4, i % 2, i % 3, 0.5 * i, 10.0 + i) for i, k in enumerate(picks)]
        path = tmp_path / "ids.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([RECORD_CSV_HEADER, *rows])
        data = read_records_csv(path)
        order = list(dict.fromkeys(row[0] for row in rows))
        assert data.user_ids == tuple(order) and len(order) == len(ids)
        assert user_records(data) == [(uid, [row[1:] for row in rows if row[0] == uid])
                                      for uid in order]

    @pytest.mark.usefixtures("second_half")
    @pytest.mark.parametrize("first, second", [("a\0", "a"), ("\0", ""), ("a\0b", "ab")])
    def test_records_reader_rejects_nul_in_user_ids(self, tmp_path, first, second):
        # a fixed-width bytes column cannot tell "a\0" from "a": never merge them
        path = tmp_path / "records.csv"
        path.write_text(",".join(RECORD_CSV_HEADER) + "\nu,0,0,0,1.0,2.0\n\n"
                        f"{second},0,0,0,1.0,2.0\n{first},0,0,0,1.0,2.0\n", encoding="utf-8")
        with pytest.raises(ConfigError) as excinfo:
            read_records_csv(path)
        assert str(excinfo.value) == f"{path}:5: NUL byte"

    @pytest.mark.parametrize("lines_before", [1, 2000])  # in the header's read, and past it
    @pytest.mark.parametrize("row, message", [
        (b"\xff\xfe,0,0,0,1.0,2.0", "byte 0xff in position 0: invalid start byte"),
        # a latin-1 no-break space, which the parse would take as whitespace
        (b"u2,0,0,0,1.0\xa0,2.0", "byte 0xa0 in position 12: invalid start byte"),
    ])
    @pytest.mark.usefixtures("second_half")
    def test_records_reader_names_the_line_of_bytes_that_are_not_utf8(
            self, tmp_path, lines_before, row, message):
        path = tmp_path / "records.csv"
        path.write_bytes((",".join(RECORD_CSV_HEADER) + "\n").encode()
                         + b"u1,0,0,0,1.0,2.0\n" * lines_before + row + b"\nu2,0,0,0,1.0,2.0\n")
        with pytest.raises(ConfigError) as excinfo:
            read_records_csv(path)
        assert str(excinfo.value) == (
            f"{path}:{lines_before + 2}: 'utf-8' codec can't decode {message}")

    def test_reading_records_holds_no_object_per_row(self, tmp_path, monkeypatch, second_half):
        # the reader's peak is the parsed table (the returned columns, ids
        # and a parse buffer), not one Python string per row
        data = generate(default_spec(num_users=7000, num_regions=100, seed=1))
        path = tmp_path / "records.csv"
        write_records_csv(path, data)
        del data
        if second_half == "inline":
            # the file is 5.5 MB: read it whole, where tracemalloc sees the
            # columns, and not in halves into shared memory that it does not
            monkeypatch.setattr(schema, "_FORK_BYTES", 1 << 62)
        tracemalloc.start()
        try:
            back = read_records_csv(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert back.num_records > 100_000
        columns = (back.offsets, back.region, back.activity, back.direction,
                   back.distance_km, back.duration_s)
        assert peak < 2.4 * sum(col.nbytes for col in columns)

    @pytest.mark.parametrize("chunk_records", [1, 7, 1 << 14])
    @pytest.mark.parametrize("users", [
        [("a,b", 2), ('say "hi"', 0), ("", 3), ("x", 1), ("line\r\nbreak", 2), ("é", 0),
         ("bounds", 3)],
        [("u0", 0), ("u1", 0)],
        [],
    ], ids=["quoted_ids", "no_records", "no_users"])
    def test_records_writer_bytes_equal_csv_writer(self, tmp_path, monkeypatch, chunk_records,
                                                   users):
        monkeypatch.setattr(schema, "_WRITE_CHUNK_RECORDS", chunk_records)
        values = iter([5e-324, 1e16, 1e-5, 0.1 + 0.2, 0.0, 1e300, 7.0, 2.5, 123456.789, 1.0,
                       3.0, 4.0, 9.75, 0.5, 6.0, 8.0, *FORMAT_BOUNDS])
        data = make_dataset([
            (uid, [TripRecord(i % 5, i % 3, i % 3, next(values), next(values))
                   for i in range(n)]) for uid, n in users])
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        write_records_csv(got, data)
        csv_writer_records(want, data)
        assert got.read_bytes() == want.read_bytes()

    @pytest.mark.usefixtures("second_half")
    @pytest.mark.parametrize("chunk_records", [1, 7, 1 << 14])
    def test_records_writer_round_trip(self, tmp_path, rng, monkeypatch, small_dims,
                                       chunk_records):
        # users without records are not in the file, so they do not come back
        monkeypatch.setattr(schema, "_WRITE_CHUNK_RECORDS", chunk_records)
        users = [(uid, tuple(random_records(rng, small_dims, n)))
                 for uid, n in (("a,b", 3), ("", 2), ("none", 0), ('q"', 9), ("z", 1))]
        users.append(("edge", (TripRecord(0, 1, 2, 5e-324, 1e16), TripRecord(3, 0, 1, 1e-5, 0.0))))
        path = tmp_path / "w.csv"
        write_records_csv(path, make_dataset(users))
        assert same_dataset(read_records_csv(path),
                            make_dataset([user for user in users if user[1]]))

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


COLUMNS = ("offsets", "region", "activity", "direction", "distance_km", "duration_s")


def bit_identical(a, b):
    return a.user_ids == b.user_ids and all(
        getattr(a, name).dtype == getattr(b, name).dtype
        and getattr(a, name).tobytes() == getattr(b, name).tobytes() for name in COLUMNS)


def head_lines(path):
    """The lines after the header that a two-half read gives the first half:
    up to the first line end after the middle byte of the rows."""
    data = path.read_bytes()
    start = data.index(b"\n") + 1
    return data[start:data.index(b"\n", (start + len(data)) // 2) + 1].count(b"\n")


def read_whole_and_in_halves(path, monkeypatch):
    """A records file read whole, then in two halves, and what each
    ``_read_in_halves`` call gave: the rows of the first half, its lines
    and the rows of the second, or None where the file was read whole."""
    monkeypatch.setattr(schema, "_FORK_BYTES", 1 << 62)
    whole = read_records_csv(path)
    monkeypatch.setattr(schema, "_FORK_BYTES", 0)
    parts = []
    read_in_halves = schema._read_in_halves

    def spy(*args):
        parts.append(read_in_halves(*args))
        return parts[-1]
    monkeypatch.setattr(schema, "_read_in_halves", spy)
    return whole, read_records_csv(path), parts


class TestRecordsInHalves:
    """A records file read in two halves reads as the whole file does."""

    def test_a_user_whose_rows_straddle_the_split(self, tmp_path, monkeypatch):
        rows = ([f"u0,{i},1,2,{i}.5,{10 * i}.0\r\n" for i in range(3)]
                + [f"a,{i % 4},0,1,{i}.25,{i}.0\r\n" for i in range(40)]
                + [f"u1,{i},2,0,{i}.75,1e-5\r\n" for i in range(3)])
        path = tmp_path / "r.csv"
        path.write_text(",".join(RECORD_CSV_HEADER) + "\r\n" + "".join(rows), newline="")
        head = head_lines(path)
        assert rows[head - 1].startswith("a,") and rows[head].startswith("a,")
        whole, halves, parts = read_whole_and_in_halves(path, monkeypatch)
        assert parts == [(head, head, len(rows) - head)]
        assert bit_identical(halves, whole)
        assert whole.user_ids == ("u0", "a", "u1") and whole.offsets.tolist() == [0, 3, 43, 46]

    def test_a_user_with_runs_on_both_sides_of_the_split(self, tmp_path, monkeypatch):
        runs = [("a", 4), ("b", 30), ("a", 3), ("c", 2), ("b", 1)]
        rows = [f"{uid},{i},{i % 3},{i % 3},{i}.5,{i}.0\n"
                for uid, n in runs for i in range(n)]
        path = tmp_path / "r.csv"
        path.write_text(",".join(RECORD_CSV_HEADER) + "\n" + "".join(rows))
        head = head_lines(path)
        assert 4 < head < 34  # the split lies in b's first run
        whole, halves, parts = read_whole_and_in_halves(path, monkeypatch)
        assert parts == [(head, head, len(rows) - head)]
        assert bit_identical(halves, whole)
        assert whole.user_ids == ("a", "b", "c") and whole.offsets.tolist() == [0, 7, 38, 40]

    @pytest.mark.parametrize("blank_head, blank_tail", [(1, 0), (5, 2), (0, 3)])
    def test_blank_lines_around_the_split(self, tmp_path, monkeypatch, blank_head, blank_tail):
        rows = [f"u{i // 4},{i},0,1,{i}.5,{i}.0\r\n" for i in range(40)]
        body = ["\r\n", "\n"] * blank_head + rows[:30] + ["\n"] * blank_tail + rows[30:]
        path = tmp_path / "r.csv"
        path.write_text(",".join(RECORD_CSV_HEADER) + "\r\n" + "".join(body), newline="")
        head = head_lines(path) - 2 * blank_head  # rows in the first half
        assert 0 < head < 30
        whole, halves, parts = read_whole_and_in_halves(path, monkeypatch)
        assert parts == [(head, head_lines(path), 40 - head)]
        assert bit_identical(halves, whole) and whole.num_records == 40

    @pytest.mark.parametrize("rows_before", [0, 1, 5, 12])  # moves the split
    @pytest.mark.parametrize("lone_cr", [False, True])
    def test_line_ends_of_every_kind(self, tmp_path, monkeypatch, rows_before, lone_cr):
        # CRLF and LF line ends; with lone_cr, a CR ends two of the lines,
        # which fails a half's parse, so the file is read whole
        end = "\r" if lone_cr else "\n"
        body = ("".join(f"v{i},{i},0,0,1.0,2.0\r\n" for i in range(rows_before))
                + "a,0,0,0,1.5,2.5\r\nx,1,1,1,2.5,3.5\nb,2,2,2,3.5,4.5\r\n"
                + f"p,0,1,2,4.5,5.5\na,1,0,0,5.5,6.5{end}c,2,1,0,6.5,7.5{end}"
                + "d,0,2,1,7.5,8.5\r\n")
        path = tmp_path / "r.csv"
        path.write_bytes((",".join(RECORD_CSV_HEADER) + "\n" + body).encode())
        whole, halves, parts = read_whole_and_in_halves(path, monkeypatch)
        assert bit_identical(halves, whole)
        assert whole.user_ids[-6:] == ("a", "x", "b", "p", "c", "d")
        head = head_lines(path)
        assert parts == ([None] if lone_cr else [(head, head, rows_before + 7 - head)])

    @pytest.mark.parametrize("body, uids", [
        # a CR or a CRLF inside a quoted id reads as LF in the whole file
        ('a,0,0,0,1.5,2.5\r\n"x\ry",1,1,1,2.5,3.5\r\n"p\r\nq",0,1,2,4.5,5.5\r\n'
         + "".join(f"b,{i},0,0,1.0,2.0\r\n" for i in range(8)), ("a", "x\ny", "p\nq", "b")),
        # the split follows the line end inside the quoted id
        ('"' + "x" * 200 + '\ny",0,0,0,1.0,2.0\nu,1,1,1,1.0,1.0\n', ("x" * 200 + "\ny", "u")),
    ], ids=["cr_in_quotes", "split_in_quotes"])
    def test_a_quote_reads_the_file_whole(self, tmp_path, monkeypatch, body, uids):
        def refuse(*args):
            raise AssertionError("a half was parsed")
        monkeypatch.setattr(schema, "_read_part", refuse)
        path = tmp_path / "r.csv"
        path.write_bytes((",".join(RECORD_CSV_HEADER) + "\n" + body).encode())
        whole, halves, parts = read_whole_and_in_halves(path, monkeypatch)
        assert set(parts) == {None} and bit_identical(halves, whole)
        assert whole.user_ids == uids

    def test_a_header_ended_by_a_lone_cr_reads_the_file_whole(self, tmp_path, monkeypatch):
        # the header row ends at the CR, but the first line runs on to the LF
        path = tmp_path / "r.csv"
        path.write_bytes((",".join(RECORD_CSV_HEADER)
                          + "\ru,0,0,0,1.0,2.0\nv,1,1,1,2.0,3.0\n").encode())
        whole, halves, parts = read_whole_and_in_halves(path, monkeypatch)
        assert parts == [None] and bit_identical(halves, whole)
        assert whole.user_ids == ("u", "v")

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_failing_child_leaves_the_read_to_this_process(self, tmp_path, monkeypatch):
        monkeypatch.setattr(schema, "_FORK_BYTES", 0)
        parent, read_part = os.getpid(), schema._read_part

        def fail_in_child(*args):
            if os.getpid() != parent:
                raise OSError("the child fails")
            return read_part(*args)
        monkeypatch.setattr(schema, "_read_part", fail_in_child)
        data = generate(default_spec(num_users=200, num_regions=10, seed=3))
        path = tmp_path / "r.csv"
        write_records_csv(path, data)
        assert bit_identical(read_records_csv(path), data)

    @pytest.mark.usefixtures("second_half")
    @pytest.mark.parametrize("interleaved", [False, True])
    def test_read_columns_are_contiguous(self, tmp_path, interleaved):
        # a view into a parsed table would step over a whole row, id included
        uids = ["a", "b", "a"] if interleaved else ["a", "b", "c"]
        path = tmp_path / "r.csv"
        path.write_text(",".join(RECORD_CSV_HEADER) + "\n"
                        + "".join(f"{uid},{i},0,0,1.0,2.0\n" for i, uid in enumerate(uids)))
        data = read_records_csv(path)
        for name in COLUMNS:
            assert getattr(data, name).strides == (8,)


class TestFloatTexts:
    """``_float_texts`` spells every float64 as ``repr`` does."""

    @pytest.mark.parametrize("values", [
        [0.0, -0.0, 5e-324, -5e-324, math.inf, -math.inf, math.nan, 2.0**53, 2.0**53 + 2,
         0.1, 1 / 3, 1e300, np.finfo(float).max, -np.finfo(float).max],
        FORMAT_BOUNDS + [-v for v in FORMAT_BOUNDS],
        [],
        np.arange(20.0)[::2],  # a strided view, which orjson takes only made contiguous
    ], ids=["edge_values", "format_bounds", "empty", "strided"])
    def test_equals_repr(self, values):
        x = np.asarray(values, dtype=float)
        assert schema._float_texts(values) == list(map(repr, x.tolist()))

    def test_equals_repr_at_random(self):
        # random bit patterns fall mostly outside [1e-4, 1e16), so add values
        # of both signs spread log-uniformly over it and a decade either side
        rng = np.random.default_rng(12345)
        bits = rng.integers(0, 2**64, size=200_000, dtype=np.uint64).view(float)
        spread = rng.choice([-1.0, 1.0], size=100_000) * 10.0 ** rng.uniform(-5, 17, 100_000)
        for x in (bits, spread):
            assert schema._float_texts(x) == list(map(repr, x.tolist()))


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

    @pytest.mark.usefixtures("second_half")
    def test_rows_are_repr_formatted_in_flat_order(self, tmp_path, rng):
        # rows in many slices, so they cross slice boundaries
        dims = Dimensions(num_activities=9, num_regions=2500)
        dense = np.zeros(dims.total_cells)
        flats = np.sort(rng.choice(dims.total_cells, size=300, replace=False))
        dense[flats] = rng.lognormal(0.0, 3.0, size=flats.size)
        path = tmp_path / "h.csv"
        write_histogram_csv(path, dense, dims)
        expected = ["activity,metric,region,direction,value"]
        for flat in flats.tolist():
            a, m, r, d = cell_tuple(dims, flat)
            expected.append(f"{a},{METRIC_NAMES[m]},{r},{d},{float(dense[flat])!r}")
        assert path.read_bytes() == ("\r\n".join(expected) + "\r\n").encode()

    def test_writer_rejects_wrong_length(self, tmp_path, small_dims):
        with pytest.raises(ValueError):
            write_histogram_csv(tmp_path / "h.csv", np.zeros(5), small_dims)

    @pytest.mark.parametrize("dims, cells", [
        # every slice empty but the last
        (Dimensions(num_activities=2, num_regions=4), {69: 2.5, 70: 1.0, 71: 0.1 + 0.2}),
        # one region: three cells per slice
        (Dimensions(num_activities=3, num_regions=1), {0: 1.0, 4: 7.25, 26: 3.0}),
        (Dimensions(num_activities=2, num_regions=4),
         {0: 5e-324, 5: 1e16, 17: 1e-5, 30: math.nan, 31: math.inf, 40: -1.5, 71: 1e300,
          **dict(enumerate(FORMAT_BOUNDS + [-v for v in FORMAT_BOUNDS], start=41))}),
        (Dimensions(num_activities=2, num_regions=4), {}),
    ], ids=["last_slice_only", "one_region", "edge_values", "empty"])
    @pytest.mark.usefixtures("second_half")
    def test_writer_bytes_equal_csv_writer(self, tmp_path, dims, cells):
        dense = np.zeros(dims.total_cells)
        for flat, value in cells.items():
            dense[flat] = value
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        write_histogram_csv(got, dense, dims)
        csv_writer_histogram(want, dense, dims)
        assert got.read_bytes() == want.read_bytes()

    @pytest.mark.usefixtures("second_half")
    @pytest.mark.parametrize("chunk_cells", [1, 7, 1 << 14])
    def test_writer_bytes_equal_csv_writer_at_random(self, tmp_path, rng, monkeypatch,
                                                     chunk_cells):
        monkeypatch.setattr(schema, "_WRITE_CHUNK_CELLS", chunk_cells)
        dims = Dimensions(num_activities=3, num_regions=50)
        dense = np.where(rng.random(dims.total_cells) < 0.5, 0.0,
                         rng.lognormal(0.0, 8.0, size=dims.total_cells))
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        write_histogram_csv(got, dense, dims)
        csv_writer_histogram(want, dense, dims)
        assert got.read_bytes() == want.read_bytes()

    @pytest.mark.usefixtures("second_half")
    @pytest.mark.parametrize("block_rows", [1, 2, 7])
    def test_roundtrip_in_read_blocks(self, tmp_path, rng, monkeypatch, block_rows):
        monkeypatch.setattr(schema, "_READ_BLOCK_ROWS", block_rows)
        dims = Dimensions(num_activities=2, num_regions=5)
        for size in (0, 1, 6, 7, 8, 14, 15, dims.total_cells):
            dense = np.zeros(dims.total_cells)
            flats = rng.choice(dims.total_cells, size=size, replace=False)
            dense[flats] = rng.lognormal(0.0, 3.0, size=size)
            path = tmp_path / f"h{size}.csv"
            write_histogram_csv(path, dense, dims)
            assert read_histogram_csv(path, dims).tobytes() == dense.tobytes()

    def test_reading_a_small_file_holds_one_dense_vector(self, tmp_path, rng):
        # the dense vector (32.4 MB at 9 x 50,000 regions), its seen mask
        # and one block of rows; not one Python object per cell
        dims = Dimensions(num_activities=9, num_regions=50_000)
        dense = np.zeros(dims.total_cells)
        dense[rng.choice(dims.total_cells, size=100, replace=False)] = 1.5
        path = tmp_path / "h.csv"
        write_histogram_csv(path, dense, dims)
        tracemalloc.start()
        try:
            back = read_histogram_csv(path, dims)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(back, dense)
        assert peak < 40e6

    @pytest.mark.usefixtures("second_half")
    @pytest.mark.parametrize("block_rows", [1, 2, 7, 1 << 15])
    @pytest.mark.parametrize("body, lineno, message", [
        ("0,num_trips,0,0,1.0\n0,num_trips,1\n", 3, "expected 5 fields, got 3"),
        ("0,speed,0,0,1.0\n", 2, "unknown metric 'speed'"),
        # the metric is read by name only, never by its index
        ("0,7,0,0,1.0\n", 2, "unknown metric '7'"),
        ("0,num_trips,0,0,1.0\n1,1,3,2,2.5\n", 3, "unknown metric '1'"),
        ("0,num_trips,x,0,1.0\n", 2, "invalid literal for int() with base 10: 'x'"),
        ("0,num_trips,0,0,abc\n", 2, "could not convert string to float: 'abc'"),
        ("\n1,distance,2,1,4.0\n5,num_trips,0,0,1.0\n", 4,
         "cell (5, 0, 0, 0) out of bounds for Dimensions(num_activities=2, num_regions=4)"),
        ("0,duration,1,2,1.0\n0,duration,1,2,3.0\n", 3, "duplicate cell (0, 2, 1, 2)"),
        ("0,num_trips,0,0,0.0\n0,num_trips,0,0,5.0\n", 3, "duplicate cell (0, 0, 0, 0)"),
        ("0,num_trips,0,0,1.0\n  \n", 3, "expected 5 fields, got 1"),
        ("0,num_tripsXYZ,0,0,1.0\n", 2, "unknown metric 'num_tripsXYZ'"),
        # numpy's bytes column would drop the token's trailing NUL
        ("0,num_trips\0,0,0,1.5\n", 2, "NUL byte"),
        # the first row of the cell lies in an earlier read block
        ("".join(f"0,num_trips,{r},{d},1.0\n" for r in range(4) for d in range(3))
         + "0,num_trips,0,0,2.0\n", 14, "duplicate cell (0, 0, 0, 0)"),
        # a blank row, then a bad row in a later read block
        ("".join(f"1,distance,{r},{d},1.0\n" for r in range(4) for d in range(3))
         + "\n0,num_trips,0,0,abc\n", 15, "could not convert string to float: 'abc'"),
    ])
    def test_reader_errors_keep_messages_and_line_numbers(
            self, tmp_path, small_dims, monkeypatch, block_rows, body, lineno, message):
        monkeypatch.setattr(schema, "_READ_BLOCK_ROWS", block_rows)
        path = tmp_path / "h.csv"
        path.write_text("activity,metric,region,direction,value\n" + body)
        with pytest.raises(ConfigError) as excinfo:
            read_histogram_csv(path, small_dims)
        assert str(excinfo.value) == f"{path}:{lineno}: {message}"

    # inputs the row-by-row csv reader took: it stripped metric tokens and
    # read every spelling Python's int() and float() accept
    @pytest.mark.usefixtures("second_half")
    @pytest.mark.parametrize("row, message", [
        ("0, num_trips,0,0,1.0", ":2: unknown metric ' num_trips'"),
        ("0,num_trips ,0,0,1.0", ":2: unknown metric 'num_trips '"),
        ("0, 1,0,0,1.0", ":2: unknown metric ' 1'"),
        ("0,01,0,0,1.0", ":2: unknown metric '01'"),
        ("0,+1,0,0,1.0", ":2: unknown metric '+1'"),
        ("0,+7,0,0,1.0", ":2: unknown metric '+7'"),
        ("0,num_trips,0,0,1_0", ": could not convert string '1_0' to float64"),
        ("0,num_trips,0_1,0,1.0", ": could not convert string '0_1' to int64"),
    ])
    def test_reader_takes_exact_tokens_and_plain_numbers_only(
            self, tmp_path, small_dims, row, message):
        path = tmp_path / "h.csv"
        path.write_text("activity,metric,region,direction,value\n" + row + "\n")
        with pytest.raises(ConfigError) as excinfo:
            read_histogram_csv(path, small_dims)
        assert str(excinfo.value).startswith(f"{path}{message}")

    @pytest.mark.usefixtures("second_half")
    @pytest.mark.parametrize("block_rows", [1, 1 << 15])
    @pytest.mark.parametrize("rows_before", [1, 2000])  # in the header's read, and past it
    def test_reader_names_the_line_of_bytes_that_are_not_utf8(
            self, tmp_path, monkeypatch, block_rows, rows_before):
        monkeypatch.setattr(schema, "_READ_BLOCK_ROWS", block_rows)
        path = tmp_path / "h.csv"
        path.write_bytes(b"activity,metric,region,direction,value\n"
                         + b"".join(b"0,num_trips,%d,%d,1.0\n" % divmod(i, 3)
                                    for i in range(rows_before))
                         + b"1,num_trips\xff,0,0,1.0\n")
        with pytest.raises(ConfigError) as excinfo:
            read_histogram_csv(path, Dimensions(num_activities=2, num_regions=700))
        assert str(excinfo.value) == (f"{path}:{rows_before + 2}: 'utf-8' codec can't decode "
                                      "byte 0xff in position 11: invalid start byte")

    def test_reader_bad_header(self, tmp_path, small_dims):
        path = tmp_path / "h.csv"
        path.write_text("a,b\n")
        with pytest.raises(ConfigError) as excinfo:
            read_histogram_csv(path, small_dims)
        assert str(excinfo.value) == (
            f"{path}: bad header ['a', 'b'], expected "
            "['activity', 'metric', 'region', 'direction', 'value']")

    def test_reader_drops_zero_rows(self, tmp_path, small_dims):
        path = tmp_path / "h.csv"
        path.write_text("activity,metric,region,direction,value\n"
                        "1,distance,3,2,2.5\n0,num_trips,0,0,0.0\n0,num_trips,0,1,-0.0\n")
        back = read_histogram_csv(path, small_dims)
        assert np.count_nonzero(back) == 1
        assert back[small_dims.cell_index(1, 1, 3, 2)] == 2.5
        assert np.signbit(back).sum() == 0  # a -0.0 row reads as an absent cell

    @pytest.mark.usefixtures("second_half")
    def test_a_cell_with_a_row_in_each_half_is_a_duplicate(self, tmp_path):
        # each half alone holds the cell once
        dims = Dimensions(num_activities=2, num_regions=700)
        rows = [f"1,distance,{r},{d},2.5\n" for r in range(700) for d in range(3)]
        path = tmp_path / "h.csv"
        path.write_text("activity,metric,region,direction,value\n" + "".join(rows) + rows[0])
        with pytest.raises(ConfigError) as excinfo:
            read_histogram_csv(path, dims)
        assert str(excinfo.value) == f"{path}:{len(rows) + 2}: duplicate cell (1, 1, 0, 0)"

    @pytest.mark.usefixtures("second_half")
    @pytest.mark.parametrize("second, expected", [
        # the quoted field ends in the second half: the file holds two cells
        (' "\n0,num_trips,0,1,2.5\n', {0: 1.5, 1: 2.5}),
        # read alone, the first half ends in an open quote and the second
        # starts a good row; read whole, the quoted field runs into that row
        ('0,num_trips,0,1,"2.5"\n', "could not convert string to float: "
                                    "'1.5" + " " * 40 + "\\n0,num_trips,0,1,2.5\"'"),
    ], ids=["good", "bad"])
    def test_a_split_inside_a_quoted_field_reads_the_file_whole(
            self, tmp_path, small_dims, second, expected):
        header = "activity,metric,region,direction,value\n"
        first = '0,num_trips,0,0,"1.5' + " " * 40 + "\n"
        path = tmp_path / "h.csv"
        path.write_text(header + first + second)
        # the split follows the first line end after the middle byte
        assert len(header) + len(first) > (len(header) + path.stat().st_size) // 2
        if isinstance(expected, dict):
            back = read_histogram_csv(path, small_dims)
            assert {flat: back[flat] for flat in np.flatnonzero(back).tolist()} == expected
        else:
            with pytest.raises(ConfigError) as excinfo:
                read_histogram_csv(path, small_dims)
            assert str(excinfo.value) == f"{path}:2: {expected}"

    @pytest.mark.usefixtures("second_half")
    def test_a_failed_write_leaves_the_file_at_path_as_it_was(self, tmp_path, monkeypatch):
        def fail(*args):
            raise OSError(28, "No space left on device")
        monkeypatch.setattr(schema, "_write_rows", fail)
        path = tmp_path / "h.csv"
        path.write_bytes(b"an earlier release\r\n")
        dims = Dimensions(num_activities=2, num_regions=4)
        with pytest.raises(OSError):
            write_histogram_csv(path, np.ones(dims.total_cells), dims)
        assert os.listdir(tmp_path) == ["h.csv"]
        assert path.read_bytes() == b"an earlier release\r\n"

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_failing_child_leaves_the_read_to_this_process(self, tmp_path, rng, monkeypatch):
        monkeypatch.setattr(schema, "_FORK_BYTES", 0)
        parent, read_part = os.getpid(), schema._read_part

        def fail_in_child(*args):
            if os.getpid() != parent:
                raise OSError("the child fails")
            return read_part(*args)
        monkeypatch.setattr(schema, "_read_part", fail_in_child)
        dims = Dimensions(num_activities=2, num_regions=50)
        dense = np.where(rng.random(dims.total_cells) < 0.5, 0.0, rng.lognormal(size=dims.total_cells))
        path = tmp_path / "h.csv"
        write_histogram_csv(path, dense, dims)
        assert read_histogram_csv(path, dims).tobytes() == dense.tobytes()

    @pytest.mark.usefixtures("second_half")
    @pytest.mark.parametrize("rows_before", [0, 1, 5])  # moves the split
    def test_line_ends_of_every_kind(self, tmp_path, small_dims, rows_before):
        path = tmp_path / "h.csv"
        path.write_bytes(b"activity,metric,region,direction,value\n"
                         + b"".join(b"1,distance,%d,%d,9.0\n" % divmod(i, 3)
                                    for i in range(rows_before))
                         + b"0,num_trips,0,0,1.5\r0,num_trips,0,1,2.5\r\n\r\n"
                           b"0,num_trips,0,2,3.5\n\n\r1,duration,3,2,4.5\r\n0,distance,1,1,5.5")
        back = read_histogram_csv(path, small_dims)
        expected = {0: 1.5, 1: 2.5, 2: 3.5, 16: 5.5, 71: 4.5}
        expected.update({small_dims.cell_index(1, 1, *divmod(i, 3)): 9.0
                         for i in range(rows_before)})
        assert {flat: back[flat] for flat in np.flatnonzero(back).tolist()} == expected


def test_byte_check_counts_lines_and_quotes(tmp_path, rng):
    # lines end at "\n" or at the end of the range, also across the 64 KiB reads
    data = rng.choice(np.frombuffer(b'a,\r\n"', dtype=np.uint8), size=200_000,
                      p=[0.5, 0.2, 0.1, 0.15, 0.05]).tobytes()
    path = tmp_path / "t.csv"
    path.write_bytes(data)
    for start, stop in [(0, None), (0, len(data)), (1, 65_537), (65_535, 65_537),
                        (7, 7), (100, 199_999), (65_536, 131_073)]:
        part = tmp_path / "part.csv"
        part.write_bytes(data[start:stop])
        with open(part, newline="\n", encoding="utf-8") as fh:
            lines = sum(1 for _ in fh)
        assert schema._check_bytes(path, start, stop) == (data[start:stop].count(b'"'), lines)
