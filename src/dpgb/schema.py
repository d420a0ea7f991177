"""Domain vocabulary shared by the whole pipeline.

Trips are grouped into cells keyed by (activity, metric, region, direction).
Regions, activities and directions are dense integer indices; any name table
lives outside the pipeline.  Metrics are fixed: trip count, total distance in
kilometers, total duration in seconds.
"""

from __future__ import annotations

import csv
import math
from array import array
from dataclasses import dataclass
from pathlib import Path

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

    def check_cell(self, cell: Cell) -> None:
        a, m, r, d = cell
        self.cell_index(a, m, r, d)


@dataclass(frozen=True)
class TripRecord:
    """One trip: where it happened, how it was taken, how far and how long."""

    region: int
    activity: int
    direction: int
    distance_km: float
    duration_s: float

    def __post_init__(self) -> None:
        if self.region < 0 or self.activity < 0 or self.direction < 0:
            raise ValueError(f"negative index in {self}")
        if not (math.isfinite(self.distance_km) and self.distance_km >= 0):
            raise ValueError(f"distance_km must be finite and >= 0, got {self.distance_km}")
        if not (math.isfinite(self.duration_s) and self.duration_s >= 0):
            raise ValueError(f"duration_s must be finite and >= 0, got {self.duration_s}")

    def validate(self, dims: Dimensions) -> None:
        if (self.region >= dims.num_regions or self.activity >= dims.num_activities
                or self.direction >= 3):
            raise ValueError(f"record {self} out of bounds for {dims}")


@dataclass(frozen=True)
class WeekDataset:
    """One week of trips, held per user.

    ``week_id`` is an opaque label.  ``users`` is an ordered sequence of
    (user_id, records) pairs; the order is the canonical reduction order for
    every aggregation, so runs are reproducible.
    """

    week_id: str
    users: tuple[tuple[str, tuple[TripRecord, ...]], ...]

    def __post_init__(self) -> None:
        ids = [uid for uid, _ in self.users]
        if len(ids) != len(set(ids)):
            raise ConfigError(f"duplicate user_id in dataset {self.week_id!r}")

    @classmethod
    def build(cls, week_id: str, users) -> "WeekDataset":
        return cls(week_id, tuple((uid, tuple(records)) for uid, records in users))

    @property
    def num_users(self) -> int:
        return len(self.users)

    @property
    def num_records(self) -> int:
        return sum(len(records) for _, records in self.users)


@dataclass(frozen=True)
class SparseHistogram:
    """Map from (activity, metric, region, direction) cells to real values.

    An absent cell is zero; constructors drop explicit zeros.  The plain
    constructor trusts its input; use :meth:`from_cells` for validated data.
    Instances are treated as immutable values.
    """

    dims: Dimensions
    cells: dict[Cell, float]

    @classmethod
    def empty(cls, dims: Dimensions) -> "SparseHistogram":
        return cls(dims, {})

    @classmethod
    def from_cells(cls, dims: Dimensions, cells) -> "SparseHistogram":
        out: dict[Cell, float] = {}
        for cell, value in dict(cells).items():
            key = (int(cell[0]), int(cell[1]), int(cell[2]), int(cell[3]))
            dims.check_cell(key)
            v = float(value)
            if v != 0.0:
                out[key] = v
        return cls(dims, out)

    def get(self, cell: Cell) -> float:
        return self.cells.get(cell, 0.0)

    def l1_norm(self) -> float:
        # fsum keeps the norm invariant to cell insertion order
        return math.fsum(abs(v) for v in self.cells.values())

    def scale(self, factor: float) -> "SparseHistogram":
        if factor == 1.0:
            return self
        return SparseHistogram(
            self.dims, {c: v * factor for c, v in self.cells.items() if v * factor != 0.0}
        )

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

    __add__ = add

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.dims.total_cells)
        for (a, m, r, d), value in self.cells.items():
            dense[self.dims.cell_index(a, m, r, d)] = value
        return dense

    def allclose(self, other: "SparseHistogram", rel_tol: float = 1e-9,
                 abs_tol: float = 0.0) -> bool:
        if other.dims != self.dims:
            return False
        for cell in self.cells.keys() | other.cells.keys():
            if not math.isclose(self.get(cell), other.get(cell),
                                rel_tol=rel_tol, abs_tol=abs_tol):
                return False
        return True

    def __len__(self) -> int:
        return len(self.cells)


def user_histogram(records, dims: Dimensions, scales: ScaleMatrix) -> SparseHistogram:
    """One user's scaled aggregate: per record, 1/S(a, num_trips),
    distance/S(a, distance) and duration/S(a, duration) accumulate into the
    record's cells.  With ``ScaleMatrix.ones`` this is the raw aggregate.

    A record outside ``dims`` raises ValueError, so every mechanism fails the
    same way on out-of-domain input.
    """
    if scales.num_activities != dims.num_activities:
        raise ConfigError("scale matrix does not match dimensions")
    factors = scales.entries.tolist()
    cells: dict[Cell, float] = {}
    for rec in records:
        rec.validate(dims)
        a, r, d = rec.activity, rec.region, rec.direction
        s_trips, s_dist, s_dur = factors[a]
        base = (a, NUM_TRIPS, r, d)
        cells[base] = cells.get(base, 0.0) + 1.0 / s_trips
        dist = (a, DISTANCE, r, d)
        cells[dist] = cells.get(dist, 0.0) + rec.distance_km / s_dist
        dur = (a, DURATION, r, d)
        cells[dur] = cells.get(dur, 0.0) + rec.duration_s / s_dur
    return SparseHistogram(dims, {c: v for c, v in cells.items() if v != 0.0})


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

    def factor(self, activity: int, metric: int) -> float:
        return float(self.entries[activity, metric])

    def per_cell(self, dims: Dimensions) -> np.ndarray:
        """Expand to one factor per flat cell, in cell_index order."""
        if dims.num_activities != self.num_activities:
            raise ConfigError("scale matrix does not match dimensions")
        return np.repeat(self.entries.reshape(-1), dims.num_regions * 3)

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
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(RECORD_CSV_HEADER)
        for uid, records in data.users:
            for rec in records:
                writer.writerow(
                    [uid, rec.region, rec.activity, rec.direction, rec.distance_km, rec.duration_s])


def read_records_csv(path, week_id: str | None = None) -> WeekDataset:
    """Read trips grouped by user, in order of first appearance."""
    users: dict[str, list[TripRecord]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != RECORD_CSV_HEADER:
            raise ConfigError(f"{path}: bad header {header!r}, expected {RECORD_CSV_HEADER}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 6:
                raise ConfigError(f"{path}:{lineno}: expected 6 fields, got {len(row)}")
            try:
                rec = TripRecord(
                    region=int(row[1]), activity=int(row[2]), direction=int(row[3]),
                    distance_km=float(row[4]), duration_s=float(row[5]))
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from None
            users.setdefault(row[0], []).append(rec)
    label = week_id if week_id is not None else Path(path).stem
    return WeekDataset.build(label, users.items())


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
        for _, records in data.users:
            for rec in records:
                max_a = max(max_a, rec.activity + 1)
                max_r = max(max_r, rec.region + 1)
    return Dimensions(
        num_activities=num_activities if num_activities > 0 else max(max_a, 1),
        num_regions=num_regions if num_regions > 0 else max(max_r, 1),
    )
