"""Domain vocabulary shared by the whole pipeline.

Trips are grouped into cells keyed by (activity, metric, region, direction).
Regions, activities and directions are dense integer indices; any name table
lives outside the pipeline.  Metrics are fixed: trip count, total distance in
kilometers, total duration in seconds.
"""

from __future__ import annotations

import csv
import math
import warnings
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np

METRIC_NAMES = ("num_trips", "distance", "duration")
NUM_TRIPS, DISTANCE, DURATION = 0, 1, 2

DIRECTION_NAMES = ("within", "outbound", "inbound")

MECHANISM_KINDS = ("budget_split", "joint_clipping", "activity_metric_scaling")

RECORD_CSV_HEADER = ["user_id", "region", "activity", "direction", "distance_km", "duration_s"]
HISTOGRAM_CSV_HEADER = ["activity", "metric", "region", "direction", "value"]

Cell = tuple[int, int, int, int]


class ConfigError(ValueError):
    """Invalid configuration or malformed input data (CLI exit code 1)."""


def metric_index(token: str) -> int:
    """Accept a metric by name or by integer index."""
    token = token.strip()
    if token in METRIC_NAMES:
        return METRIC_NAMES.index(token)
    try:
        m = int(token)
    except ValueError:
        raise ConfigError(f"unknown metric {token!r}") from None
    if not 0 <= m < 3:
        raise ConfigError(f"metric index out of range: {m}")
    return m


@dataclass(frozen=True)
class Dimensions:
    """Index-set sizes of the cell domain.

    Metrics and directions are structurally fixed at 3; activities and regions
    are configurable (production scale uses 9 activities and ~50,000 regions,
    the desk-scale default is 100 regions).
    """

    num_activities: int = 9
    num_regions: int = 100
    num_metrics: int = 3
    num_directions: int = 3

    def __post_init__(self) -> None:
        if self.num_metrics != 3 or self.num_directions != 3:
            raise ConfigError("num_metrics and num_directions are fixed at 3")
        if self.num_activities < 1 or self.num_regions < 1:
            raise ConfigError("num_activities and num_regions must be >= 1")

    @property
    def total_cells(self) -> int:
        return self.num_activities * 3 * self.num_regions * 3

    def cell_index(self, a: int, m: int, r: int, d: int) -> int:
        """Flatten a cell tuple; bijective, (a, m, r, d)-lexicographic."""
        if not (0 <= a < self.num_activities and 0 <= m < 3
                and 0 <= r < self.num_regions and 0 <= d < 3):
            raise IndexError(f"cell ({a}, {m}, {r}, {d}) out of bounds for {self}")
        return ((a * 3 + m) * self.num_regions + r) * 3 + d

    def cell_tuple(self, flat: int) -> Cell:
        """Inverse of :meth:`cell_index`."""
        if not 0 <= flat < self.total_cells:
            raise IndexError(f"flat index {flat} out of bounds for {self}")
        flat, d = divmod(flat, 3)
        flat, r = divmod(flat, self.num_regions)
        a, m = divmod(flat, 3)
        return (a, m, r, d)


@dataclass(frozen=True, eq=False)
class WeekDataset:
    """One week of trips as columns, grouped by user.

    ``week_id`` is an opaque label.  User i is ``user_ids[i]`` and holds the
    records ``offsets[i]:offsets[i + 1]`` of the region, activity, direction,
    distance_km and duration_s columns; a user may hold none.  User order is
    the canonical reduction order for every aggregation, so runs are
    reproducible.
    """

    week_id: str
    user_ids: tuple[str, ...]
    offsets: np.ndarray
    region: np.ndarray
    activity: np.ndarray
    direction: np.ndarray
    distance_km: np.ndarray
    duration_s: np.ndarray

    def __post_init__(self) -> None:
        if len(set(self.user_ids)) != len(self.user_ids):
            raise ConfigError(f"duplicate user_id in dataset {self.week_id!r}")
        for name, dtype in (("offsets", np.int64), ("region", np.int64),
                            ("activity", np.int64), ("direction", np.int64),
                            ("distance_km", float), ("duration_s", float)):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))
        columns = (self.region, self.activity, self.direction, self.distance_km, self.duration_s)
        n, offsets = self.region.size, self.offsets
        if (offsets.shape != (len(self.user_ids) + 1,) or offsets[0] != 0 or offsets[-1] != n
                or np.any(np.diff(offsets) < 0) or any(col.shape != (n,) for col in columns)):
            raise ValueError("the offsets must rise from 0 to the length of every record column")
        negative = (self.region < 0) | (self.activity < 0) | (self.direction < 0)
        bad_distance = ~(np.isfinite(self.distance_km) & (self.distance_km >= 0))
        bad_duration = ~(np.isfinite(self.duration_s) & (self.duration_s >= 0))
        bad = np.flatnonzero(negative | bad_distance | bad_duration)
        if bad.size:  # the first bad record, its first failed check
            i = bad[0]
            if negative[i]:
                raise ValueError(f"negative index in record (region={self.region[i]}, "
                                 f"activity={self.activity[i]}, direction={self.direction[i]})")
            name, value = (("distance_km", self.distance_km[i]) if bad_distance[i]
                           else ("duration_s", self.duration_s[i]))
            raise ValueError(f"{name} must be finite and >= 0, got {float(value)}")

    @property
    def num_users(self) -> int:
        return len(self.user_ids)

    @property
    def num_records(self) -> int:
        return int(self.region.size)


class UserCells(NamedTuple):
    """The per-user vectors of one block of whole users, as rows.

    One row per (user, cell) with a nonzero value, sorted by user and then
    by cell.  ``first`` orders a user's rows by the position of the first
    addend to each cell in the block's records; ``starts`` holds, for each
    user of the block in turn and then for its end, the first row of that
    user, so user k of the block owns rows ``starts[k]:starts[k + 1]``.
    """

    user: np.ndarray
    cell: np.ndarray
    value: np.ndarray
    first: np.ndarray
    starts: np.ndarray


# records per block of whole users that user_cells turns into rows at once
_BLOCK_RECORDS = 1 << 15


def user_cells(data: WeekDataset, dims: Dimensions, scales: ScaleMatrix) -> Iterator[UserCells]:
    """Each user's scaled vector, in blocks of whole users in user order.

    A record adds 1/S(a, num_trips), distance/S(a, distance) and
    duration/S(a, duration) to its three cells; with ``ScaleMatrix.ones``
    the rows are the raw aggregate.  A cell's addends are summed in record
    order, and cells that sum to zero get no row.

    A record outside ``dims`` raises ValueError, so every mechanism fails
    the same way on out-of-domain input.
    """
    if scales.num_activities != dims.num_activities:
        raise ConfigError("scale matrix does not match dimensions")
    return _user_cell_blocks(data, dims, scales.entries)


def _user_cell_blocks(data: WeekDataset, dims: Dimensions, entries: np.ndarray):
    offsets = data.offsets
    slice_cells = dims.num_regions * 3
    metric_shift = np.arange(3) * slice_cells
    marks = np.searchsorted(offsets, np.arange(0, offsets[-1], _BLOCK_RECORDS), side="right") - 1
    edges = np.unique(np.concatenate(([0], marks, [data.num_users]))).tolist()
    for u0, u1 in zip(edges, edges[1:]):
        lo, hi = int(offsets[u0]), int(offsets[u1])
        a, r, d = data.activity[lo:hi], data.region[lo:hi], data.direction[lo:hi]
        out = np.flatnonzero((a >= dims.num_activities) | (r >= dims.num_regions) | (d >= 3))
        if out.size:
            i = out[0]
            raise ValueError(f"record (region={r[i]}, activity={a[i]}, direction={d[i]}) "
                             f"out of bounds for {dims}")
        # three addends per record, record-major: num_trips, distance, duration
        cells = ((a * 3 * slice_cells + r * 3 + d)[:, None] + metric_shift).reshape(-1)
        magnitudes = np.stack(
            (np.ones(hi - lo), data.distance_km[lo:hi], data.duration_s[lo:hi]), axis=1)
        addends = (magnitudes / entries[a]).reshape(-1)
        owner = np.repeat(np.arange(u1 - u0), 3 * np.diff(offsets[u0:u1 + 1]))
        keys, first, inverse = np.unique(
            owner * dims.total_cells + cells, return_index=True, return_inverse=True)
        sums = np.bincount(inverse, weights=addends)  # adds in record order
        keep = sums != 0.0
        keys = keys[keep]
        user = keys // dims.total_cells + u0
        yield UserCells(user, keys % dims.total_cells, sums[keep], first[keep],
                        np.searchsorted(user, np.arange(u0, u1 + 1)))


@dataclass(frozen=True, eq=False)
class ScaleMatrix:
    """Per-(activity, metric) normalization factors, strictly positive."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.entries, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 3 or arr.shape[0] < 1:
            raise ConfigError(f"scale matrix must have shape (num_activities, 3), got {arr.shape}")
        if not np.all(np.isfinite(arr)) or not np.all(arr > 0):
            raise ConfigError("scale matrix entries must be finite and strictly positive")
        object.__setattr__(self, "entries", arr)

    @classmethod
    def ones(cls, num_activities: int) -> "ScaleMatrix":
        return cls(np.ones((num_activities, 3)))

    @property
    def num_activities(self) -> int:
        return int(self.entries.shape[0])

    def is_ones(self) -> bool:
        return bool(np.all(self.entries == 1.0))


@dataclass(frozen=True, eq=False)
class MechanismConfig:
    """Everything that determines one release.

    ``clip`` is a scalar L1 bound for joint_clipping and
    activity_metric_scaling, and a per-(activity, metric) grid for
    budget_split.  Baselines carry an all-ones scale matrix.
    """

    epsilon: float
    mechanism_kind: str
    clip: float | np.ndarray
    scales: ScaleMatrix
    threshold_tau: float
    rng_seed: int

    def __post_init__(self) -> None:
        if self.mechanism_kind not in MECHANISM_KINDS:
            raise ConfigError(
                f"unknown mechanism_kind {self.mechanism_kind!r}; expected one of {MECHANISM_KINDS}")
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ConfigError(f"epsilon must be finite and > 0, got {self.epsilon}")
        if not (math.isfinite(self.threshold_tau) and self.threshold_tau >= 0):
            raise ConfigError(f"threshold_tau must be finite and >= 0, got {self.threshold_tau}")
        if self.mechanism_kind == "budget_split":
            grid = np.asarray(self.clip, dtype=float)
            if grid.shape != (self.scales.num_activities, 3):
                raise ConfigError(
                    f"budget_split needs a clip grid of shape ({self.scales.num_activities}, 3)")
            if not np.all(np.isfinite(grid)) or not np.all(grid > 0):
                raise ConfigError("clip grid entries must be finite and strictly positive")
            object.__setattr__(self, "clip", grid)
        else:
            c = float(self.clip)
            if not (math.isfinite(c) and c > 0):
                raise ConfigError(f"clip must be finite and > 0, got {self.clip}")
            object.__setattr__(self, "clip", c)
        if self.mechanism_kind != "activity_metric_scaling" and not self.scales.is_ones():
            raise ConfigError(f"{self.mechanism_kind} requires an all-ones scale matrix")


# ---------------------------------------------------------------------------
# file formats


def read_kv_file(path) -> dict[str, str]:
    """Flat ``key = value`` text file; blank lines and # comments ignored."""
    out: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key in out:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            out[key] = value.strip()
    return out


def write_kv_file(path, mapping: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in mapping.items():
            fh.write(f"{key} = {value}\n")


def _parse_float(raw: str, key: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"key {key!r}: expected a number, got {raw!r}") from None


def _parse_int(raw: str, key: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"key {key!r}: expected an integer, got {raw!r}") from None


def _parse_grid(raw: str, key: str) -> np.ndarray:
    values = [_parse_float(tok, key) for tok in raw.split(",") if tok.strip()]
    if not values or len(values) % 3 != 0:
        raise ConfigError(f"key {key!r}: expected 3 values per activity, got {len(values)}")
    return np.asarray(values).reshape(-1, 3)


def _format_grid(grid: np.ndarray) -> str:
    return ",".join(repr(float(v)) for v in np.asarray(grid).reshape(-1))


def read_mechanism_config(path) -> MechanismConfig:
    kv = read_kv_file(path)
    for key in ("mechanism_kind", "epsilon", "scales", "threshold_tau", "rng_seed"):
        if key not in kv:
            raise ConfigError(f"{path}: missing mandatory key {key!r}")
    kind = kv["mechanism_kind"]
    scales = ScaleMatrix(_parse_grid(kv["scales"], "scales"))
    if kind == "budget_split":
        if "clip_grid" not in kv:
            raise ConfigError(f"{path}: budget_split requires key 'clip_grid'")
        clip: float | np.ndarray = _parse_grid(kv["clip_grid"], "clip_grid")
    else:
        if "clip" not in kv:
            raise ConfigError(f"{path}: missing mandatory key 'clip'")
        clip = _parse_float(kv["clip"], "clip")
    known = {"mechanism_kind", "epsilon", "scales", "threshold_tau", "rng_seed", "clip", "clip_grid"}
    unknown = set(kv) - known
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
    return MechanismConfig(
        epsilon=_parse_float(kv["epsilon"], "epsilon"),
        mechanism_kind=kind,
        clip=clip,
        scales=scales,
        threshold_tau=_parse_float(kv["threshold_tau"], "threshold_tau"),
        rng_seed=_parse_int(kv["rng_seed"], "rng_seed"),
    )


def write_mechanism_config(path, config: MechanismConfig) -> None:
    kv = {
        "mechanism_kind": config.mechanism_kind,
        "epsilon": repr(config.epsilon),
    }
    if config.mechanism_kind == "budget_split":
        kv["clip_grid"] = _format_grid(config.clip)
    else:
        kv["clip"] = repr(config.clip)
    kv["scales"] = _format_grid(config.scales.entries)
    kv["threshold_tau"] = repr(config.threshold_tau)
    kv["rng_seed"] = str(config.rng_seed)
    write_kv_file(path, kv)


def write_records_csv(path, data: WeekDataset) -> None:
    owners = np.repeat(np.array(data.user_ids, dtype=object), np.diff(data.offsets))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(RECORD_CSV_HEADER)
        writer.writerows(zip(owners.tolist(), data.region.tolist(), data.activity.tolist(),
                             data.direction.tolist(), data.distance_km.tolist(),
                             data.duration_s.tolist()))


_RECORD_DTYPE = np.dtype([("user_id", object), ("region", np.int64), ("activity", np.int64),
                          ("direction", np.int64), ("distance_km", float), ("duration_s", float)])


def read_records_csv(path, week_id: str | None = None) -> WeekDataset:
    """Read trips grouped by user, users in order of first appearance and
    each user's records in file order.

    One ``np.loadtxt`` pass parses the file.  If a row does not parse or
    fails the record checks, the file is read again with ``csv`` to name
    the first bad line and what is wrong with it.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        header = next(csv.reader(fh), None)
    if header != RECORD_CSV_HEADER:
        raise ConfigError(f"{path}: bad header {header!r}, expected {RECORD_CSV_HEADER}")
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            # older numpy only warns, then truncates, when an index reads as a float
            warnings.filterwarnings("error", r"loadtxt\(\): Parsing an integer via a float",
                                    DeprecationWarning)
            table = np.loadtxt(path, dtype=_RECORD_DTYPE, delimiter=",", skiprows=1,
                               quotechar='"', comments=None, ndmin=1, encoding="utf-8")
        index: dict[str, int] = {}
        owner = np.fromiter((index.setdefault(uid, len(index)) for uid in table["user_id"]),
                            dtype=np.int64, count=table.size)
        table["user_id"] = None  # the dataset keeps one string per user, not per row
        columns = [table[name] for name in RECORD_CSV_HEADER[1:]]
        if np.any(owner[1:] < owner[:-1]):  # users interleaved: group them, stably
            order = np.argsort(owner, kind="stable")
            columns = [col[order] for col in columns]
        offsets = np.concatenate(([0], np.cumsum(np.bincount(owner, minlength=len(index)))))
        return WeekDataset(week_id if week_id is not None else Path(path).stem,
                           tuple(index), offsets, *columns)
    except ValueError as exc:
        raise _bad_row_error(path, f"{path}: {exc}") from None


def _bad_row_error(path, fallback: str) -> ConfigError:
    """The error naming the first bad row of a records file as
    ``path:lineno: message``, lines counted as csv rows; ``fallback`` when
    every row passes Python's own int() and float() and the record checks."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader, None)
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 6:
                return ConfigError(f"{path}:{lineno}: expected 6 fields, got {len(row)}")
            try:  # the row as a one-record dataset, for the same checks
                WeekDataset("", ("",), [0, 1], [int(row[1])], [int(row[2])], [int(row[3])],
                            [float(row[4])], [float(row[5])])
            except (ValueError, OverflowError) as exc:
                return ConfigError(f"{path}:{lineno}: {exc}")
    return ConfigError(fallback)


# cells per block of the dense vector the histogram writer converts at once
_WRITE_BLOCK_CELLS = 1 << 16


def write_histogram_csv(path, dense: np.ndarray, dims: Dimensions) -> None:
    """One row per nonzero cell, in flat cell order; metric written by name.

    The dense vector is converted in fixed-size blocks, so the writer never
    holds more than one block of rows as Python objects.
    """
    if dense.shape != (dims.total_cells,):
        raise ValueError(f"dense array shape {dense.shape} does not match {dims}")
    names = np.array(METRIC_NAMES, dtype=object)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(HISTOGRAM_CSV_HEADER)
        for start in range(0, dims.total_cells, _WRITE_BLOCK_CELLS):
            block = dense[start:start + _WRITE_BLOCK_CELLS]
            flat = np.flatnonzero(block)
            values = block[flat].tolist()
            rest, d = np.divmod(flat + start, 3)
            rest, r = np.divmod(rest, dims.num_regions)
            a, m = np.divmod(rest, 3)
            writer.writerows(zip(a.tolist(), names[m].tolist(), r.tolist(), d.tolist(), values))


def read_histogram_csv(path, dims: Dimensions) -> np.ndarray:
    """Dense vector in flat cell order; absent and zero-valued cells read 0.

    A second row for a cell is an error, also when the first one held 0.
    """
    dense = array("d", bytes(8 * dims.total_cells))
    seen = bytearray(dims.total_cells)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != HISTOGRAM_CSV_HEADER:
            raise ConfigError(f"{path}: bad header {header!r}, expected {HISTOGRAM_CSV_HEADER}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 5:
                raise ConfigError(f"{path}:{lineno}: expected 5 fields, got {len(row)}")
            try:
                cell = (int(row[0]), metric_index(row[1]), int(row[2]), int(row[3]))
                value = float(row[4])
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from None
            try:
                flat = dims.cell_index(*cell)
            except IndexError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from None
            if seen[flat]:
                raise ConfigError(f"{path}:{lineno}: duplicate cell {cell}")
            seen[flat] = 1
            if value != 0.0:
                dense[flat] = value
    return np.frombuffer(dense, dtype=float)


def infer_dimensions(datasets, *, num_activities: int = 0, num_regions: int = 0) -> Dimensions:
    """Smallest Dimensions covering every index seen, with optional overrides.

    When both overrides are given the records are not read at all.
    """
    if num_activities > 0 and num_regions > 0:
        return Dimensions(num_activities=num_activities, num_regions=num_regions)
    max_a, max_r = 0, 0
    for data in datasets:
        if data.num_records:
            max_a = max(max_a, int(data.activity.max()) + 1)
            max_r = max(max_r, int(data.region.max()) + 1)
    return Dimensions(
        num_activities=num_activities if num_activities > 0 else max(max_a, 1),
        num_regions=num_regions if num_regions > 0 else max(max_r, 1),
    )
