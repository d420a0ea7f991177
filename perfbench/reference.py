"""Reference computations for the benchmark's output checks.

Everything here is computed straight from the CSV files with numpy and
imports nothing from ``dpgb``, so a check built on it compares the program
against an independent implementation of the same definitions:

- exact per-cell totals and contributing-device counts,
- each user's scaled, L1-clipped vector and the sum over users,
- lower empirical quantiles (the fitted scales and clip),
- weighted relative error (WRE).

Cells are flattened in (activity, metric, region, direction) order, the
order of the records and histogram file formats; metrics are indexed
0 = num_trips, 1 = distance, 2 = duration.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

METRIC_NAMES = ("num_trips", "distance", "duration")
NUM_METRICS = 3
NUM_DIRECTIONS = 3


@dataclass(frozen=True)
class Records:
    """A records CSV as columns; ``user`` numbers users by first appearance."""

    user: np.ndarray
    region: np.ndarray
    activity: np.ndarray
    direction: np.ndarray
    distance: np.ndarray
    duration: np.ndarray
    num_users: int

    @property
    def num_records(self) -> int:
        return int(self.user.size)


@dataclass(frozen=True)
class Domain:
    num_activities: int
    num_regions: int

    @property
    def total_cells(self) -> int:
        return self.num_activities * NUM_METRICS * self.num_regions * NUM_DIRECTIONS

    def cell(self, activity, metric, region, direction):
        return ((activity * NUM_METRICS + metric) * self.num_regions + region) \
            * NUM_DIRECTIONS + direction

    def slice_of_cell(self) -> np.ndarray:
        """(activity * 3 + metric) for every flat cell."""
        return np.arange(self.total_cells) // (self.num_regions * NUM_DIRECTIONS)


def read_records(path) -> Records:
    with open(path, "rb") as fh:
        header = fh.readline()
    if header.strip() != b"user_id,region,activity,direction,distance_km,duration_s":
        raise ValueError(f"{path}: unexpected header {header!r}")
    num = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(1, 2, 3, 4, 5), ndmin=2)
    ids = np.loadtxt(path, delimiter=",", skiprows=1, usecols=0, dtype=str, ndmin=1)
    _, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
    # renumber so user k is the k-th user to appear in the file
    rank = np.empty(first.size, dtype=np.int64)
    rank[np.argsort(first, kind="stable")] = np.arange(first.size)
    ints = num[:, :3].astype(np.int64)
    return Records(
        user=rank[inverse.reshape(-1)], region=ints[:, 0], activity=ints[:, 1],
        direction=ints[:, 2], distance=num[:, 3].copy(), duration=num[:, 4].copy(),
        num_users=int(first.size))


def read_histogram(path) -> tuple[np.ndarray, ...]:
    """(activity, metric, region, direction, value) columns of a histogram CSV."""
    with open(path, "rb") as fh:
        buf = fh.read()
    header, _, _ = buf.partition(b"\n")
    if header.strip() != b"activity,metric,region,direction,value":
        raise ValueError(f"{path}: unexpected header {header!r}")
    for index, name in enumerate(METRIC_NAMES):
        buf = buf.replace(b"," + name.encode() + b",", b",%d," % index)
    cols = np.loadtxt(io.BytesIO(buf), delimiter=",", skiprows=1, ndmin=2)
    if cols.size == 0:
        cols = np.zeros((0, 5))
    ints = cols[:, :4].astype(np.int64)
    return ints[:, 0], ints[:, 1], ints[:, 2], ints[:, 3], cols[:, 4].copy()


def read_kv(path) -> dict[str, str]:
    """``key = value`` lines (configs, manifests); ``#`` starts a comment."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#") and "=" in line:
                key, _, value = line.partition("=")
                out[key.strip()] = value.strip()
    return out


def parse_grid(raw: str, num_activities: int) -> np.ndarray:
    return np.array([float(tok) for tok in raw.split(",")]).reshape(num_activities, NUM_METRICS)


def record_cells(rec: Records, dom: Domain) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(user, flat cell, value) triples: three per record, one per metric."""
    cells = np.concatenate([
        dom.cell(rec.activity, m, rec.region, rec.direction) for m in range(NUM_METRICS)])
    values = np.concatenate([np.ones(rec.num_records), rec.distance, rec.duration])
    users = np.tile(rec.user, NUM_METRICS)
    return users, cells, values


def exact_totals(rec: Records, dom: Domain) -> np.ndarray:
    _, cells, values = record_cells(rec, dom)
    return np.bincount(cells, weights=values, minlength=dom.total_cells)


def device_counts(rec: Records, dom: Domain) -> np.ndarray:
    """Distinct users with at least one record in each cell."""
    users, cells, _ = record_cells(rec, dom)
    pairs = np.unique(users * dom.total_cells + cells)
    return np.bincount(pairs % dom.total_cells, minlength=dom.total_cells)


def user_cell_sums(rec: Records, dom: Domain, scales: np.ndarray):
    """Per (user, cell) sums of value / S(activity, metric), sorted by user."""
    users, cells, values = record_cells(rec, dom)
    scaled = values / scales.reshape(-1)[dom.slice_of_cell()[cells]]
    keys, inverse = np.unique(users * dom.total_cells + cells, return_inverse=True)
    sums = np.bincount(inverse.reshape(-1), weights=scaled)
    return keys // dom.total_cells, keys % dom.total_cells, sums


def user_l1_norms(rec: Records, dom: Domain, scales: np.ndarray) -> np.ndarray:
    """L1 norm of each user's scaled (unclipped) vector, indexed by user."""
    users, _, sums = user_cell_sums(rec, dom, scales)
    return np.bincount(users, weights=np.abs(sums), minlength=rec.num_users)


def clipped_aggregate(rec: Records, dom: Domain, scales: np.ndarray, clip: float) -> np.ndarray:
    """Sum over users of each scaled vector clipped to L1 norm ``clip``."""
    users, cells, sums = user_cell_sums(rec, dom, scales)
    norms = np.bincount(users, weights=np.abs(sums), minlength=rec.num_users)
    factor = np.ones(rec.num_users)
    over = norms > clip
    factor[over] = clip / norms[over]
    return np.bincount(cells, weights=sums * factor[users], minlength=dom.total_cells)


def lower_quantile(values, q: float) -> float:
    """Smallest x with at least ceil(q * n) of the n values <= x."""
    ordered = np.sort(np.asarray(values, dtype=float))
    if ordered.size == 0:
        raise ValueError("lower_quantile of no values")
    rank = math.ceil(Fraction(q) * ordered.size)
    return float(ordered[max(rank, 1) - 1])


def fitted_scales(rec: Records, dom: Domain, q: float = 0.95) -> np.ndarray:
    """Per-(activity, metric) quantile of nonzero per-user slice L1 norms; 1 if none."""
    ones = np.ones((dom.num_activities, NUM_METRICS))
    users, cells, sums = user_cell_sums(rec, dom, ones)
    slices = dom.slice_of_cell()[cells]
    num_slices = dom.num_activities * NUM_METRICS
    keys, inverse = np.unique(users * num_slices + slices, return_inverse=True)
    norms = np.bincount(inverse.reshape(-1), weights=np.abs(sums))
    key_slice = keys % num_slices
    out = np.ones(num_slices)
    for s in range(num_slices):
        values = norms[(key_slice == s) & (norms != 0.0)]
        if values.size:
            out[s] = lower_quantile(values, q)
    return out.reshape(dom.num_activities, NUM_METRICS)


def fitted_clip(rec: Records, dom: Domain, scales: np.ndarray, q: float = 0.95) -> float:
    return lower_quantile(user_l1_norms(rec, dom, scales), q)


def dense_histogram(columns, dom: Domain) -> np.ndarray:
    a, m, r, d, v = columns
    dense = np.zeros(dom.total_cells)
    dense[dom.cell(a, m, r, d)] = v
    return dense


def weighted_relative_error(truth: np.ndarray, devices: np.ndarray, released: np.ndarray,
                            dom: Domain, min_devices: int) -> dict[str, tuple[float, int]]:
    """Per metric: (WRE, eligible cell count).

    Weights are n_{r,d,a} / n_r from the true trip counts; eligible cells have
    a positive true value and at least ``min_devices`` contributing users.
    """
    shape = (dom.num_activities, NUM_METRICS, dom.num_regions, NUM_DIRECTIONS)
    truth4, devices4, released4 = (x.reshape(shape) for x in (truth, devices, released))
    counts = truth4[:, 0]                       # (activity, region, direction)
    region_totals = counts.sum(axis=(0, 2))
    with np.errstate(invalid="ignore", divide="ignore"):
        weights = np.where(region_totals[None, :, None] > 0,
                           counts / region_totals[None, :, None], 0.0)
    out = {}
    for m, name in enumerate(METRIC_NAMES):
        true_m = truth4[:, m]
        eligible = (true_m > 0) & (devices4[:, m] >= min_devices)
        err = np.abs(released4[:, m][eligible] - true_m[eligible]) / true_m[eligible]
        w = weights[eligible]
        wre = float(np.dot(w, err) / w.sum()) if w.sum() > 0 else math.nan
        out[name] = (wre, int(eligible.sum()))
    return out
