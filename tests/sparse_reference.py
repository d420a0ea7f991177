"""Dict-based reference for the per-user path.

One trip record per object, one dict per user vector, one loop per record:
the plain-Python definitions that the columnar pipeline in ``dpgb`` must
reproduce.  Deliberately independent of ``dpgb.client``, ``dpgb.dp_core``
and the ground truth's computation; ``WeekDataset`` and ``GroundTruth``
are shared only to build inputs and read outputs.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from dpgb.datagen import GroundTruth
from dpgb.schema import (NUM_TRIPS, DISTANCE, DURATION, RECORD_CSV_HEADER, WeekDataset,
                         write_record_rows)

Cell = tuple[int, int, int, int]


def cell_tuple(dims, flat: int) -> Cell:
    """The (activity, metric, region, direction) of a flat cell index: the
    inverse of ``Dimensions.cell_index``."""
    if not 0 <= flat < dims.total_cells:
        raise IndexError(f"flat index {flat} out of bounds for {dims}")
    flat, d = divmod(flat, 3)
    flat, r = divmod(flat, dims.num_regions)
    a, m = divmod(flat, 3)
    return (a, m, r, d)


class TripRecord(NamedTuple):
    """One trip: where it happened, how it was taken, how far and how long."""

    region: int
    activity: int
    direction: int
    distance_km: float
    duration_s: float


def make_dataset(users) -> WeekDataset:
    """WeekDataset from (user_id, records) pairs, users and records in order."""
    users = [(uid, list(records)) for uid, records in users]
    records = [rec for _, recs in users for rec in recs]
    columns = [[rec[i] for rec in records] for i in range(5)]
    offsets = np.concatenate(([0], np.cumsum([len(recs) for _, recs in users], dtype=np.int64)))
    return WeekDataset(tuple(uid for uid, _ in users), offsets, *columns)


def users_of(data: WeekDataset) -> tuple:
    """(user_id, records) pairs of a dataset, the inverse of make_dataset."""
    columns = [col.tolist() for col in (data.region, data.activity, data.direction,
                                        data.distance_km, data.duration_s)]
    edges = data.offsets.tolist()
    return tuple(
        (uid, tuple(TripRecord(*(col[i] for col in columns)) for i in range(lo, hi)))
        for uid, lo, hi in zip(data.user_ids, edges, edges[1:]))


def same_dataset(a: WeekDataset, b: WeekDataset) -> bool:
    return (a.user_ids == b.user_ids
            and all(np.array_equal(getattr(a, name), getattr(b, name))
                    for name in ("offsets", "region", "activity", "direction",
                                 "distance_km", "duration_s")))


def write_records_csv(path, data: WeekDataset) -> None:
    """One row per record, users in order, written at once: the header line,
    then ``write_record_rows``.  The reference for ``generate_csv``'s bytes."""
    with open(path, "wb") as fh:
        fh.write((",".join(RECORD_CSV_HEADER) + "\r\n").encode())
        write_record_rows(fh, data)


@dataclass(frozen=True)
class SparseHistogram:
    """Map from (activity, metric, region, direction) cells to real values.

    An absent cell is zero; constructors drop explicit zeros.
    """

    dims: object
    cells: dict

    @classmethod
    def empty(cls, dims) -> "SparseHistogram":
        return cls(dims, {})

    @classmethod
    def from_cells(cls, dims, cells) -> "SparseHistogram":
        out = {}
        for cell, value in dict(cells).items():
            key = (int(cell[0]), int(cell[1]), int(cell[2]), int(cell[3]))
            dims.cell_index(*key)
            if float(value) != 0.0:
                out[key] = float(value)
        return cls(dims, out)

    def get(self, cell: Cell) -> float:
        return self.cells.get(cell, 0.0)

    def l1_norm(self) -> float:
        return math.fsum(abs(v) for v in self.cells.values())

    def scale(self, factor: float) -> "SparseHistogram":
        if factor == 1.0:
            return self
        return SparseHistogram(
            self.dims, {c: v * factor for c, v in self.cells.items() if v * factor != 0.0})

    def add(self, other: "SparseHistogram") -> "SparseHistogram":
        if other.dims != self.dims:
            raise ValueError("cannot merge histograms with different dimensions")
        merged = dict(self.cells)
        for cell, value in other.cells.items():
            new = merged.get(cell, 0.0) + value
            if new == 0.0:
                merged.pop(cell, None)
            else:
                merged[cell] = new
        return SparseHistogram(self.dims, merged)

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.dims.total_cells)
        for (a, m, r, d), value in self.cells.items():
            dense[self.dims.cell_index(a, m, r, d)] = value
        return dense

    def allclose(self, other: "SparseHistogram", rel_tol: float = 1e-9,
                 abs_tol: float = 0.0) -> bool:
        if other.dims != self.dims:
            return False
        return all(math.isclose(self.get(c), other.get(c), rel_tol=rel_tol, abs_tol=abs_tol)
                   for c in self.cells.keys() | other.cells.keys())

    def __len__(self) -> int:
        return len(self.cells)


def user_histogram(records, dims, scales) -> SparseHistogram:
    """One user's scaled aggregate, record by record: 1/S(a, num_trips),
    distance/S(a, distance) and duration/S(a, duration) into the record's
    cells, dict insertion order being first appearance.  ``scales`` is a
    ScaleMatrix or its (A, 3) entries."""
    scales = np.asarray(getattr(scales, "entries", scales)).tolist()
    cells = {}
    for rec in records:
        a, r, d = rec.activity, rec.region, rec.direction
        if a >= dims.num_activities or r >= dims.num_regions or d >= 3:
            raise ValueError(f"record {rec} out of bounds for {dims}")
        for metric, value in ((NUM_TRIPS, 1.0), (DISTANCE, rec.distance_km),
                              (DURATION, rec.duration_s)):
            cell = (a, metric, r, d)
            cells[cell] = cells.get(cell, 0.0) + value / scales[a][metric]
    return SparseHistogram(dims, {c: v for c, v in cells.items() if v != 0.0})


def raw_histogram(records, dims) -> SparseHistogram:
    """A user's unscaled aggregate: +1 trip, +distance, +duration per record."""
    return user_histogram(records, dims, np.ones((dims.num_activities, 3)))


def per_cell(scales, dims) -> np.ndarray:
    """S(a, m) for every flat cell, in cell_index order."""
    return np.repeat(scales.entries.reshape(-1), dims.num_regions * 3)


def clip_l1(v: SparseHistogram, clip: float) -> SparseHistogram:
    """Rescale v so its L1 norm is at most ``clip``."""
    norm = v.l1_norm()
    return v if norm <= clip else v.scale(clip / norm)


def clip_slices(hist: SparseHistogram, clips) -> SparseHistogram:
    """Clip each (activity, metric) slice of one vector to its own bound."""
    slices = {}
    for cell, value in hist.cells.items():
        slices.setdefault(cell[:2], {})[cell] = value
    merged = {}
    for (a, m), cells in slices.items():
        merged.update(clip_l1(SparseHistogram(hist.dims, cells), float(clips[a][m])).cells)
    return SparseHistogram(hist.dims, merged)


def block_histograms(blocks, dims) -> dict:
    """Per-user SparseHistograms, keyed by user index, from UserCells blocks."""
    out = {}
    for rows in blocks:
        for user, cell, value in zip(rows.user.tolist(), rows.cell.tolist(),
                                     rows.value.tolist()):
            out.setdefault(user, {})[cell_tuple(dims, cell)] = value
    return {user: SparseHistogram(dims, cells) for user, cells in out.items()}


def user_order_sum(vectors, dims) -> np.ndarray:
    """Dense left-to-right sum of per-user vectors, in the order given."""
    total = np.zeros(dims.total_cells)
    for vec in vectors:
        for (a, m, r, d), value in vec.cells.items():
            total[dims.cell_index(a, m, r, d)] += value
    return total


def reference_ground_truth(data: WeekDataset, dims):
    """Exact totals and per-cell device counts, user by user, as dicts in
    order of first appearance."""
    totals, devices = {}, {}
    for _, records in users_of(data):
        for cell, value in raw_histogram(records, dims).cells.items():
            totals[cell] = totals.get(cell, 0.0) + value
            devices[cell] = devices.get(cell, 0) + 1
    return SparseHistogram(dims, {c: v for c, v in totals.items() if v != 0.0}), devices


def as_ground_truth(truth: SparseHistogram, devices: dict) -> GroundTruth:
    """The GroundTruth of the cells of ``truth``, ordered as its dict."""
    dims = truth.dims
    flat = np.array([dims.cell_index(*cell) for cell in truth.cells], dtype=np.int64)
    by_cell = np.argsort(flat)
    return GroundTruth(
        dims,
        flat[by_cell],
        np.array(list(truth.cells.values()), dtype=float)[by_cell],
        np.array([devices.get(cell, 0) for cell in truth.cells], dtype=np.int64)[by_cell],
        np.argsort(by_cell))
