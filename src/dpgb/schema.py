"""Domain vocabulary shared by the whole pipeline.

Trips are grouped into cells keyed by (activity, metric, region, direction).
Regions, activities and directions are dense integer indices; any name table
lives outside the pipeline.  Metrics are fixed: trip count, total distance in
kilometers, total duration in seconds.
"""

from __future__ import annotations

import codecs
import itertools
import math
import mmap
import os
import shutil
import tempfile
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from typing import Iterator, NamedTuple

import numpy as np

METRIC_NAMES = ("num_trips", "distance", "duration")
NUM_TRIPS, DISTANCE, DURATION = 0, 1, 2

MECHANISM_KINDS = ("budget_split", "joint_clipping", "activity_metric_scaling")

RECORD_CSV_HEADER = ["user_id", "region", "activity", "direction", "distance_km", "duration_s"]
HISTOGRAM_CSV_HEADER = ["activity", "metric", "region", "direction", "value"]


class ConfigError(ValueError):
    """Invalid configuration or malformed input data (CLI exit code 1)."""


def metric_index(token: str) -> int:
    """A metric by its exact name, as the histogram writer writes it."""
    if token not in METRIC_NAMES:
        raise ConfigError(f"unknown metric {token!r}")
    return METRIC_NAMES.index(token)


@dataclass(frozen=True)
class Dimensions:
    """Index-set sizes of the cell domain.

    Metrics and directions are structurally fixed at 3; activities and regions
    are configurable (production scale uses 9 activities and ~50,000 regions).
    """

    num_activities: int
    num_regions: int

    def __post_init__(self) -> None:
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


@dataclass(frozen=True, eq=False)
class WeekDataset:
    """One week of trips as columns, grouped by user.

    User i is ``user_ids[i]`` and holds the records
    ``offsets[i]:offsets[i + 1]`` of the region, activity, direction,
    distance_km and duration_s columns; a user may hold none.  User order is
    the canonical reduction order for every aggregation, so runs are
    reproducible.
    """

    user_ids: tuple[str, ...]
    offsets: np.ndarray
    region: np.ndarray
    activity: np.ndarray
    direction: np.ndarray
    distance_km: np.ndarray
    duration_s: np.ndarray

    def __post_init__(self) -> None:
        if len(set(self.user_ids)) != len(self.user_ids):
            raise ConfigError("duplicate user_id in dataset")
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
_BLOCK_RECORDS = 1 << 13


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
    metric = np.arange(3)[:, None]
    marks = np.searchsorted(offsets, np.arange(0, offsets[-1], _BLOCK_RECORDS), side="right") - 1
    edges = np.concatenate(([0], marks, [data.num_users]))  # non-decreasing
    edges = edges[np.diff(edges, prepend=-1) > 0].tolist()
    for u0, u1 in zip(edges, edges[1:]):
        lo, hi = int(offsets[u0]), int(offsets[u1])
        a, r, d = data.activity[lo:hi], data.region[lo:hi], data.direction[lo:hi]
        out = np.flatnonzero((a >= dims.num_activities) | (r >= dims.num_regions) | (d >= 3))
        if out.size:
            i = out[0]
            raise ValueError(f"record (region={r[i]}, activity={a[i]}, direction={d[i]}) "
                             f"out of bounds for {dims}")
        # a record's three addends go to one (activity, region, direction)
        # of each metric's slice, so records are grouped, not addends
        owner = np.repeat(np.arange(u1 - u0), np.diff(offsets[u0:u1 + 1]))
        keys, first, inverse = np.unique(
            (owner * dims.num_activities + a) * slice_cells + r * 3 + d,
            return_index=True, return_inverse=True)
        columns = (np.ones(hi - lo), data.distance_km[lo:hi], data.duration_s[lo:hi])
        sums = [np.bincount(inverse, weights=column / entries[a, m])  # adds in record order
                for m, column in enumerate(columns)]
        # rows by (user, cell): per (user, activity), its metric-0, -1 and -2
        # rows, so key i of a group with head h and size n has its metric-m
        # row at 3h + mn + (i - h)
        group = keys // slice_cells
        heads = np.flatnonzero(np.diff(group, prepend=-1))
        sizes = np.diff(heads, append=keys.size)
        at = (np.arange(keys.size) + np.repeat(2 * heads, sizes)
              + metric * np.repeat(sizes, sizes)).reshape(-1)
        cell, first_addend, value = np.empty_like(at), np.empty_like(at), np.empty(at.size)
        cell[at] = ((3 * (group % dims.num_activities) + metric) * slice_cells
                    + keys % slice_cells).reshape(-1)
        value[at] = np.concatenate(sums)
        first_addend[at] = (3 * first + metric).reshape(-1)
        keep = value != 0.0
        user = np.repeat(group[heads] // dims.num_activities + u0, 3 * sizes)[keep]
        yield UserCells(user, cell[keep], value[keep], first_addend[keep],
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
        if self.rng_seed < 0:
            raise ConfigError(f"rng_seed must be >= 0, got {self.rng_seed}")
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
        if (self.mechanism_kind != "activity_metric_scaling"
                and not np.all(self.scales.entries == 1.0)):
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
    # budget_split reads a clip grid and the other kinds one clip: the key
    # a kind does not read is unknown, not silently ignored
    clip_key = "clip_grid" if kv.get("mechanism_kind") == "budget_split" else "clip"
    mandatory = ("mechanism_kind", "epsilon", "scales", "threshold_tau", "rng_seed", clip_key)
    for key in mandatory:
        if key not in kv:
            raise ConfigError(f"{path}: missing mandatory key {key!r}")
    scales = ScaleMatrix(_parse_grid(kv["scales"], "scales"))
    parse = _parse_grid if clip_key == "clip_grid" else _parse_float
    clip = parse(kv[clip_key], clip_key)
    unknown = set(kv) - set(mandatory)
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
    return MechanismConfig(
        epsilon=_parse_float(kv["epsilon"], "epsilon"),
        mechanism_kind=kv["mechanism_kind"],
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
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(f"{key} = {value}\n" for key, value in kv.items()))


# records the records writer joins into one string
_WRITE_CHUNK_RECORDS = 1 << 14


def _float_texts(values) -> list[str]:
    """``repr(float(v))`` of each value of a 1-D float array.

    orjson spells the same shortest round-trip digits as ``repr``, in C, for
    every magnitude in [1e-4, 1e16); it spells zeros, smaller and larger
    magnitudes and non-finite values otherwise (``0.000025``, ``1e16``,
    ``null``), so those are spelt by ``repr``.
    """
    import orjson  # here, not at the top: sweep formats no bulk floats and never loads it
    values = np.ascontiguousarray(values, dtype=float)
    text = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode()
    texts = text.split(",") if values.size else []
    magnitude = np.abs(values)
    others = np.flatnonzero(~((magnitude >= 1e-4) & (magnitude < 1e16)))
    for i, value in zip(others.tolist(), values[others].tolist()):
        texts[i] = repr(value)
    return texts


def write_record_rows(fh, data: WeekDataset) -> None:
    """Write one row per record of ``data``, users in order, to the binary
    file ``fh``; after the header line, the bytes ``csv.writer`` gives.

    A user id is written bare, so ValueError, before any byte is written,
    on an id holding a comma, a quote, a CR, a LF or a NUL, which no
    records file may hold.  The rows are joined from f-strings, a chunk of
    records at a time, with CRLF endings: ``id,`` from a string per user,
    ``region,``, ``activity,`` and ``direction,`` from string tables over
    each column's distinct values, looked up by ``np.searchsorted``, so no
    row formats an int, and the floats as ``repr`` spells them (by
    :func:`_float_texts`).
    """
    banned = frozenset(',"\r\n\0')
    for uid in data.user_ids:
        if not banned.isdisjoint(uid):
            raise ValueError(f"user id {uid!r} holds one of , \" CR LF NUL")
    tokens = [f"{uid}," for uid in data.user_ids]
    owners = np.repeat(np.arange(data.num_users), np.diff(data.offsets))
    columns = (data.region, data.activity, data.direction)
    # each column's distinct values, found by sorting: np.unique's hash
    # table raised the peak RSS of generate by 1.3 MB at 5 x 10^4 users
    values = [v[np.diff(v, prepend=-1) != 0] for v in map(np.sort, columns)]  # all >= 0
    regions, activities, directions = ([f"{v}," for v in vals.tolist()] for vals in values)
    for lo in range(0, data.num_records, _WRITE_CHUNK_RECORDS):
        hi = lo + _WRITE_CHUNK_RECORDS
        chunk = ([owners[lo:hi].tolist()]
                 + [np.searchsorted(vals, col[lo:hi]).tolist() for vals, col in zip(values, columns)]
                 + [_float_texts(col[lo:hi]) for col in (data.distance_km, data.duration_s)])
        fh.write("".join([f"{tokens[u]}{regions[r]}{activities[a]}{directions[d]}{x},{y}\r\n"
                          for u, r, a, d, x, y in zip(*chunk)]).encode())


_NUMBERS = list(zip(RECORD_CSV_HEADER[1:], (np.int64,) * 3 + (float,) * 2))


def read_records_csv(path) -> WeekDataset:
    """Read trips grouped by user, users in order of first appearance and
    each user's records in file order.

    ``_record_columns`` parses the file as latin-1, user ids as bytes.  If a
    row does not parse or fails the record checks, the file is read again
    line by line to name the first bad line and what is wrong with it.
    """
    start = _header_end(path, RECORD_CSV_HEADER)
    try:
        width, full = 16, True
        while full:  # an id that fills the column may be cut: parse again, wider
            ids = columns = None  # the narrower table goes before the wider one comes
            ids, *columns = _record_columns(path, start, width)  # a user is a run of equal ids
            starts = np.flatnonzero(np.concatenate(([True], ids[1:] != ids[:-1])))[:ids.size]
            full, width = np.any(np.char.str_len(ids[starts]) == width), 4 * width
        keys, first, inverse = np.unique(ids[starts], return_index=True, return_inverse=True)
        by_first = np.argsort(first)  # the users in order of first appearance
        offsets = np.append(starts, ids.size)
        ids = None  # no id column outlives the grouping
        if keys.size < starts.size:  # a user in more than one run: group its runs, stably
            owner = np.repeat(np.argsort(by_first)[inverse], np.diff(offsets))
            order = np.argsort(owner, kind="stable")
            columns = [col[order] for col in columns]
            offsets = np.concatenate(([0], np.cumsum(np.bincount(owner, minlength=keys.size))))
        return WeekDataset(tuple(uid.decode("utf-8") for uid in keys[by_first].tolist()),
                           offsets, *columns)
    except ValueError as exc:
        raise _first_bad_row(path, len(RECORD_CSV_HEADER), _check_record_row,
                             f"{path}: {exc}") from None


def _record_columns(path, start: int, width: int) -> list[np.ndarray]:
    """The id column, ``width`` bytes wide, and the number columns of the
    rows of a records file from byte ``start``, read by ``_read_in_halves``."""
    dtype = np.dtype([("user_id", f"S{width}"), *_NUMBERS])
    columns = []

    def fill(at: int, rows: np.ndarray, done: int) -> None:
        for col, name in zip(columns, dtype.names):
            col[at + done:at + done + rows.size] = rows[name]

    def blocks(head_lines: int, tail_lines: int):
        columns.extend(_shared(head_lines + tail_lines, dtype[i]) for i in range(len(dtype)))
        return partial(fill, 0), partial(fill, head_lines)

    head, head_lines, tail = _read_in_halves(path, start, dtype, blocks)
    for col in columns if head < head_lines else ():  # blank lines: move the tail down
        col[head:head + tail] = col[head_lines:head_lines + tail]
    return [col[:head + tail] for col in columns]


def _check_record_row(row: list[str]) -> None:
    # the row as a one-record dataset, for the same checks
    WeekDataset(("",), [0, 1], [int(row[1])], [int(row[2])], [int(row[3])],
                [float(row[4])], [float(row[5])])


def _header_end(path, header: list[str]) -> int:
    """The offset of the byte after the first line of a file; ConfigError
    naming its fields unless it is ``header`` ended by LF, CRLF or the end."""
    with open(path, "rb") as fh:
        line = fh.readline()
    if line in [f"{','.join(header)}{end}".encode() for end in ("\r\n", "\n", "")]:
        return len(line)
    text = line.decode("utf-8", "surrogateescape").removesuffix("\n").removesuffix("\r")
    fields = text.split(",") if text else [] if line else None
    raise ConfigError(f"{path}: bad header {fields!r}, expected {header}")


def _check_bytes(path, start: int, stop: int) -> int:
    """The number of lines in bytes ``start:stop`` of a file, a line ended
    by ``\\n`` or the end; ValueError there on a NUL byte, which a parsed
    bytes token would drop, on a quote byte, on a ``\\r`` that is not
    followed by ``\\n`` (at the end too), or on bytes that are not UTF-8."""
    decoder = codecs.getincrementaldecoder("utf-8")()
    lines, last = 0, b""
    with open(path, "rb") as fh:
        fh.seek(start)
        left = stop - start
        while left > 0 and (chunk := fh.read(min(left, 1 << 16))):
            left -= len(chunk)
            for byte, name in ((b"\0", "NUL byte"), (b'"', "quote byte")):
                if byte in chunk:
                    raise ValueError(name)
            decoder.decode(chunk)
            # a "\r" that ended the last read is checked with this one
            ends = np.frombuffer(last + chunk if last == b"\r" else chunk, dtype=np.uint8)
            lf = ends == ord("\n")
            if np.any((ends[:-1] == ord("\r")) > lf[1:]):
                raise ValueError("CR not followed by LF")
            lines += int(np.count_nonzero(lf))
            last = chunk[-1:]
    decoder.decode(b"", final=True)
    if last == b"\r":
        raise ValueError("CR not followed by LF")
    return lines + (last not in b"\n")


def _first_bad_row(path, num_fields: int, check, fallback: str) -> ConfigError:
    """The error naming the first bad row of a CSV file as
    ``path:lineno: message``, lines ended by ``\\n`` and blank lines
    skipped; ``fallback`` when every row is UTF-8 with no NUL byte, no quote
    byte and no ``\\r`` but the one before its ``\\n``, has ``num_fields``
    fields and passes ``check``, which raises on a bad row with Python's own
    int() and float()."""
    with open(path, "rb") as fh:
        fh.readline()
        for lineno, line in enumerate(fh, start=2):
            line = line[:-1].removesuffix(b"\r") if line.endswith(b"\n") else line
            if not line:
                continue
            try:
                text = line.decode("utf-8")
                for char, name in (("\0", "NUL byte"), ('"', "quote byte"),
                                   ("\r", "CR not followed by LF")):
                    if char in text:
                        raise ValueError(name)
                row = text.split(",")
                if len(row) != num_fields:
                    raise ValueError(f"expected {num_fields} fields, got {len(row)}")
                check(row)
            except (ValueError, OverflowError, IndexError) as exc:
                return ConfigError(f"{path}:{lineno}: {exc}")
    return ConfigError(fallback)


# cells of one slice that the histogram writer joins into one string
_WRITE_CHUNK_CELLS = 1 << 14

# the "direction," field of a row, by direction
_DIRECTIONS = ("0,", "1,", "2,")

# rows to write, and bytes to read, from which the second half of a file is
# done by a forked child; a smaller file is written and read in one process
_FORK_ROWS = 1 << 16
_FORK_BYTES = 1 << 22


@contextmanager
def _second_half(work, fork: bool = True):
    """Run ``work()`` in a forked child while the body of the ``with`` runs,
    or, when not ``fork``, in this process after the body.
    ChildProcessError, an OSError, when the child exits with an error."""
    if not fork:
        yield
        work()
        return
    pid = os.fork()
    if pid == 0:  # the child: run work() and exit, never return
        code = 1
        try:
            work()
            code = 0
        finally:
            os._exit(code)
    try:
        yield
    finally:
        _, status = os.waitpid(pid, 0)
    if status:
        raise ChildProcessError(f"the child process for the second half exited with status "
                                f"{os.waitstatus_to_exitcode(status)}")


def write_in_halves(path, header: list[str], head, tail, rows: float) -> None:
    """Write the CSV file ``path``: the ``header`` line, then the rows that
    ``head(fh)`` and then ``tail(fh)`` write to a binary file ``fh``.

    With ``rows``, the expected number of rows, at ``_FORK_ROWS`` or more,
    a forked child writes the tail into an unlinked temporary file while
    this process writes the head, and the tail is appended once the child
    has exited 0.  The file is written under a temporary name in the same
    directory, which replaces ``path`` once both halves are in and is
    removed on any error, so ``path`` never holds part of a file.  OSError
    when the child fails.
    """
    part = f"{path}.{os.getpid()}.part"
    fh = open(part, "xb")  # the mode open(path, "wb") would give a new path
    try:
        with fh:
            fh.write((",".join(header) + "\r\n").encode())
            if rows < _FORK_ROWS or not hasattr(os, "fork"):
                head(fh)
                tail(fh)
            else:
                with tempfile.TemporaryFile(dir=os.path.dirname(os.path.abspath(part))) as rest:

                    def second_half():
                        tail(rest)
                        rest.flush()

                    with _second_half(second_half):
                        head(fh)
                    rest.seek(0)
                    shutil.copyfileobj(rest, fh)
        os.replace(part, path)
    except BaseException:
        os.remove(part)
        raise


def write_histogram_csv(path, dense: np.ndarray, dims: Dimensions) -> None:
    """One row per nonzero cell, in flat cell order; metric written by name.

    A row is ``activity,metric,region,direction,repr(value)`` ended by
    CRLF, the bytes ``csv.writer`` gives for the same rows.  The rows are
    written by :func:`write_in_halves` as two halves by count, split at a
    chunk boundary, so the bytes depend on neither the split nor the
    process that formats them.
    """
    if dense.shape != (dims.total_cells,):
        raise ValueError(f"dense array shape {dense.shape} does not match {dims}")
    regions = [f"{r}," for r in range(dims.num_regions)]
    # rows up to the end of each chunk of cells, counted without a bool copy
    ends = np.cumsum([np.count_nonzero(dense[i:i + _WRITE_CHUNK_CELLS])
                      for i in range(0, dims.total_cells, _WRITE_CHUNK_CELLS)])
    rows = int(ends[-1])
    # the first half ends at the chunk boundary before its middle row
    split = _WRITE_CHUNK_CELLS * int(np.searchsorted(ends, rows // 2))
    write_in_halves(path, HISTOGRAM_CSV_HEADER,
                    lambda fh: _write_rows(fh, dense, regions, 0, split),
                    lambda fh: _write_rows(fh, dense, regions, split, dims.total_cells), rows)


def _write_rows(fh, dense: np.ndarray, regions: list[str], lo: int, hi: int) -> None:
    """Write the rows of the nonzero cells of ``dense[lo:hi]`` to the binary
    file ``fh``, one chunk of a slice at a time; ``regions`` holds the
    ``"region,"`` of each region."""
    n = 3 * len(regions)
    for s in range(lo // n, -(-hi // n)):
        values = dense[s * n:(s + 1) * n]
        prefix = f"{s // 3},{METRIC_NAMES[s % 3]},"
        end = min(hi - s * n, n)
        for c in range(max(lo - s * n, 0), end, _WRITE_CHUNK_CELLS):
            flat = np.flatnonzero(values[c:min(c + _WRITE_CHUNK_CELLS, end)]) + c
            r, d = np.divmod(flat, 3)
            fh.write("".join([f"{prefix}{regions[i]}{_DIRECTIONS[j]}{v}\r\n" for i, j, v
                              in zip(r.tolist(), d.tolist(), _float_texts(values[flat]))]).encode())


# rows per np.loadtxt block of every block-wise read
_READ_BLOCK_ROWS = 1 << 15

# one byte wider than the longest metric token, so a longer token reads as a
# full-width one and never as a valid, truncated one
_HISTOGRAM_DTYPE = np.dtype([("activity", np.int64),
                             ("metric", f"S{max(map(len, METRIC_NAMES)) + 1}"),
                             ("region", np.int64), ("direction", np.int64), ("value", float)])


def read_histogram_csv(path, dims: Dimensions) -> np.ndarray:
    """Dense vector in flat cell order; absent and zero-valued cells read 0.

    A second row for a cell is an error, also when the first one held 0, and
    so is a NUL byte anywhere in the file, which a parsed token would drop, a
    quote byte or a lone CR.  The rows are parsed by ``np.loadtxt`` in
    blocks and checked as arrays, in two halves by ``_read_in_halves``.  If
    that fails, or a cell has a row in each half (fewer cells seen than rows
    parsed), the file is read again line by line to name the first bad line.
    """
    start = _header_end(path, HISTOGRAM_CSV_HEADER)
    dense, seen = _shared(dims.total_cells, float), _shared(dims.total_cells, bool)
    block = partial(_histogram_rows, dims, dense, seen)
    try:
        head, _, tail = _read_in_halves(path, start, _HISTOGRAM_DTYPE, lambda *_: (block, block))
        if head + tail != np.count_nonzero(seen):
            raise ValueError("a cell has a second row")
        return dense
    except ValueError as exc:
        raise _first_bad_row(path, len(HISTOGRAM_CSV_HEADER), _histogram_row_check(dims),
                             f"{path}: {exc}") from None


def _shared(size: int, dtype) -> np.ndarray:
    """``size`` zeros in anonymous memory that a forked child shares."""
    return np.frombuffer(mmap.mmap(-1, max(size * np.dtype(dtype).itemsize, 1)), dtype, count=size)


def _read_in_halves(path, start: int, dtype: np.dtype, blocks):
    """Parse the rows of a file from byte ``start`` with ``_read_part``, in
    two halves split at the first line end after their middle byte, once
    ``_check_bytes`` passes both; ``blocks(head_lines, tail_lines)`` gives
    the halves' block callbacks.  When the rows are ``_FORK_BYTES`` or more
    and there is ``os.fork``, a forked child parses the second half into
    shared memory while this process parses the first, and this process
    parses it again if the child fails; otherwise it follows the first
    here.  The rows of the first half, its lines and the rows of the second.
    """
    with open(path, "rb") as fh:
        stop = os.fstat(fh.fileno()).st_size
        fh.seek((start + stop) // 2)
        fh.readline()
        split = fh.tell()
    head_lines, tail_lines = _check_bytes(path, start, split), _check_bytes(path, split, stop)
    head_block, tail_block = blocks(head_lines, tail_lines)
    tail_rows = _shared(1, np.int64)

    def second_half():
        tail_rows[0] = _read_part(path, split, tail_lines, dtype, tail_block)

    try:
        with _second_half(second_half, stop - start >= _FORK_BYTES and hasattr(os, "fork")):
            head_rows = _read_part(path, start, head_lines, dtype, head_block)
    except ChildProcessError:
        second_half()
    return head_rows, head_lines, int(tail_rows[0])


def _read_part(path, start: int, lines: int, dtype: np.dtype, block) -> int:
    """Parse the ``lines`` lines, ended by ``\\n``, from byte ``start`` of a
    file as latin-1 comma-separated rows with ``np.loadtxt``,
    ``_READ_BLOCK_ROWS`` at a time, passing each block and the number of
    rows before it to ``block``; the number of rows."""
    done = 0
    with open(path, encoding="latin-1", newline="\n") as fh, warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        warnings.filterwarnings("ignore", r"Input line \d+ contained no data")  # blank rows
        # older numpy only warns, then truncates, when an int reads as a float
        warnings.filterwarnings("error", r"loadtxt\(\): Parsing an integer via a float",
                                DeprecationWarning)
        fh.seek(start)  # a byte offset, as latin-1 decodes each byte alone
        text = itertools.islice(fh, lines)
        while True:
            rows = np.loadtxt(text, dtype=dtype, delimiter=",", comments=None, ndmin=1,
                              max_rows=_READ_BLOCK_ROWS)
            block(rows, done)
            done += rows.size
            if rows.size < _READ_BLOCK_ROWS:
                return done


def _histogram_rows(dims: Dimensions, dense: np.ndarray, seen: np.ndarray, rows: np.ndarray,
                    done: int) -> None:
    """Set the values of a block of histogram rows in ``dense`` and their
    cells in ``seen``; ValueError if a row names no cell."""
    a, r, d = rows["activity"], rows["region"], rows["direction"]
    m = np.full(rows.size, -1)
    for index, name in enumerate(METRIC_NAMES):
        m[rows["metric"] == name.encode()] = index
    if not np.all((m >= 0) & (a >= 0) & (a < dims.num_activities)
                  & (r >= 0) & (r < dims.num_regions) & (d >= 0) & (d < 3)):
        raise ValueError("a row names no cell of the domain")
    flat = ((a * 3 + m) * dims.num_regions + r) * 3 + d
    seen[flat] = True
    nonzero = rows["value"] != 0.0
    dense[flat[nonzero]] = rows["value"][nonzero]


def _histogram_row_check(dims: Dimensions):
    """Check one histogram row at a time, as the fast path checks a block."""
    seen: set[int] = set()

    def check(row: list[str]) -> None:
        cell = (int(row[0]), metric_index(row[1]), int(row[2]), int(row[3]))
        float(row[4])
        flat = dims.cell_index(*cell)
        if flat in seen:
            raise ValueError(f"duplicate cell {cell}")
        seen.add(flat)
    return check
