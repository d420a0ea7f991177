"""Synthetic heavy-tailed mobility traffic.

Stands in for a production proxy dataset.  The generator is built to exhibit
the structure the mechanisms care about: per-(activity, metric) magnitudes
spanning orders of magnitude (a walk is a couple of kilometers, a flight is a
thousand), skewed region popularity, and outlier users whose extremes sit in
different activities.

Sampling uses only uniform draws from a per-user seeded PCG64 stream plus
deterministic inverse-CDF transforms (the standard library's AS241 normal
quantile, Poisson inversion, cumulative-table lookups).  Each user's stream
is drawn as one block of uniforms, and each transform runs over the users of
a block at once, reading every user's uniforms in the order a one-draw-at-a-
time generator would.  The arithmetic is IEEE double, which numpy and Python
round alike, except the log and exp of the magnitudes: those come from the C
library through ``math``, as they always have, because numpy's vectorised
kernels may round differently in the last bit.  A spec and seed therefore
pin the dataset byte for byte on one platform (the tests pin it on Python
3.11, numpy 2.4.6 and glibc); another C library may move the last bit of
some magnitudes.
"""

from __future__ import annotations

import csv
import itertools
import math
import mmap
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .dp_core import _U_FLOOR, derive_seed
from .schema import (
    RECORD_CSV_HEADER,
    ConfigError,
    Dimensions,
    ScaleMatrix,
    WeekDataset,
    _parse_float,
    _parse_int,
    read_kv_file,
    user_cells,
    write_in_halves,
    write_record_rows,
)

_HOME_REGION_SHARE = 0.9  # remaining trips resample the region popularity table
# exp(-lam) is a normal float below about 708.4, subnormal above, zero above about 745.1
_POISSON_LOG_SPACE = 708.0
_POISSON_CAP = 100_000  # the most trips one user draws for one activity
# uniforms drawn at once for a block of users (8 MB)
_BLOCK_DRAWS = 1 << 20

PROFILE_CSV_HEADER = [
    "activity", "name", "weight",
    "distance_log_mean", "distance_log_sigma",
    "duration_log_mean", "duration_log_sigma",
]


@dataclass(frozen=True)
class ActivityProfile:
    """Log-normal magnitude parameters and popularity weight for one activity."""

    name: str
    weight: float
    distance_log_mean: float
    distance_log_sigma: float
    duration_log_mean: float
    duration_log_sigma: float

    def __post_init__(self) -> None:
        for key in PROFILE_CSV_HEADER[2:]:
            if not math.isfinite(getattr(self, key)):
                raise ConfigError(
                    f"profile {self.name!r}: {key} must be finite, got {getattr(self, key)}")
        if self.weight < 0:
            raise ConfigError(f"profile {self.name!r}: weight must be >= 0")
        if self.distance_log_sigma < 0 or self.duration_log_sigma < 0:
            raise ConfigError(f"profile {self.name!r}: sigmas must be >= 0")


@dataclass(frozen=True)
class GeneratorSpec:
    """Fully determines one synthetic dataset."""

    num_users: int
    dims: Dimensions
    activity_profiles: tuple[ActivityProfile, ...]
    region_zipf_s: float = 1.2
    trips_per_user: float = 15.0
    outlier_fraction: float = 0.1
    outlier_multiplier: float = 10.0
    seed: int = 0

    def __post_init__(self) -> None:
        for key in ("region_zipf_s", "trips_per_user", "outlier_fraction", "outlier_multiplier"):
            if not math.isfinite(getattr(self, key)):
                raise ConfigError(f"{key} must be finite, got {getattr(self, key)}")
        if self.num_users < 0:
            raise ConfigError(f"num_users must be >= 0, got {self.num_users}")
        if len(self.activity_profiles) != self.dims.num_activities:
            raise ConfigError(
                f"{len(self.activity_profiles)} profiles for "
                f"{self.dims.num_activities} activities")
        total_weight = math.fsum(p.weight for p in self.activity_profiles)
        if abs(total_weight - 1.0) > 1e-6:
            raise ConfigError(f"activity weights must sum to 1, got {total_weight}")
        if self.region_zipf_s <= 0:
            raise ConfigError(f"region_zipf_s must be > 0, got {self.region_zipf_s}")
        if self.trips_per_user < 0:
            raise ConfigError(f"trips_per_user must be >= 0, got {self.trips_per_user}")
        if not 0 <= self.outlier_fraction < 1:
            raise ConfigError(f"outlier_fraction must be in [0, 1), got {self.outlier_fraction}")
        if self.outlier_multiplier < 1:
            raise ConfigError(f"outlier_multiplier must be >= 1, got {self.outlier_multiplier}")


def load_profiles(path) -> tuple[ActivityProfile, ...]:
    """Profile table CSV; rows must be the dense activity indices 0..A-1.
    ``path`` is a ``Path`` or a package resource: anything with ``open``."""
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != PROFILE_CSV_HEADER:
        raise ConfigError(f"{path}: bad profile table header, expected {PROFILE_CSV_HEADER}")
    profiles = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        try:  # a bad field names its file and line, as read_kv_file does
            if len(row) != 7:
                raise ConfigError("expected 7 fields")
            if int(row[0]) != len(profiles):
                raise ConfigError("activity indices must be dense")
            profiles.append(ActivityProfile(row[1], *map(float, row[2:])))
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from None
    if not profiles:
        raise ConfigError(f"{path}: profile table has no rows")
    return tuple(profiles)


def default_profiles() -> tuple[ActivityProfile, ...]:
    return load_profiles(resources.files("dpgb").joinpath("data/default_profiles.csv"))


def _zipf_cdf(num_regions: int, s: float) -> np.ndarray:
    weights = 1.0 / np.arange(1, num_regions + 1) ** s
    return np.cumsum(weights / weights.sum())


def _regions(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The region each uniform picks from a popularity table."""
    return np.minimum(np.searchsorted(cdf, u, side="right"), cdf.size - 1)


def _poisson_table(lam: float) -> tuple[np.ndarray, int]:
    """The Poisson(lam) CDF as a sequential search meets it, and the count
    of a uniform above every entry; see :func:`_poisson_counts`.

    Below _POISSON_LOG_SPACE the terms run by the recurrence p *= lam / k
    from exp(-lam), which is what every existing dataset was drawn with.
    From there on exp(-lam) loses precision to subnormal range (and then
    underflows to zero), so each term is computed in log space instead.
    The table ends at the first k past the mode whose term no longer changes
    the running sum.  The log-space search stops there and draws that k; the
    recurrence's terms only shrink from there, so its sum is final, and a
    uniform above it searches on to the cap.
    """
    log_space = lam >= _POISSON_LOG_SPACE
    log_lam = math.log(lam) if log_space else 0.0
    p = math.exp(-lam)
    cdf = [p]
    for k in range(1, _POISSON_CAP):
        p = math.exp(k * log_lam - lam - math.lgamma(k + 1)) if log_space else p * (lam / k)
        if k > lam and cdf[-1] + p == cdf[-1]:
            break
        cdf.append(cdf[-1] + p)
    return np.array(cdf), len(cdf) if log_space else _POISSON_CAP


def _poisson_counts(u: np.ndarray, table: tuple[np.ndarray, int]) -> np.ndarray:
    """The smallest k with P(X <= k) >= u of each uniform, by inversion of a
    :func:`_poisson_table`; no count exceeds _POISSON_CAP."""
    cdf, beyond = table
    k = np.searchsorted(cdf, u)
    return np.where(k < cdf.size, k, beyond)


# Wichura's AS241 (numerator, denominator) coefficients, highest power first,
# as statistics.NormalDist evaluates them: for |p - 0.5| <= 0.425, then in
# the tails for r = sqrt(-log(min(p, 1 - p))) up to 5 and above 5
_AS241_CENTRAL = (
    (2.50908_09287_30122_6727e+3, 3.34305_75583_58812_8105e+4, 6.72657_70927_00870_0853e+4,
     4.59219_53931_54987_1457e+4, 1.37316_93765_50946_1125e+4, 1.97159_09503_06551_4427e+3,
     1.33141_66789_17843_7745e+2, 3.38713_28727_96366_6080e+0),
    (5.22649_52788_52854_5610e+3, 2.87290_85735_72194_2674e+4, 3.93078_95800_09271_0610e+4,
     2.12137_94301_58659_5867e+4, 5.39419_60214_24751_1077e+3, 6.87187_00749_20579_0830e+2,
     4.23133_30701_60091_1252e+1, 1.0))
_AS241_NEAR = (
    (7.74545_01427_83414_07640e-4, 2.27238_44989_26918_45833e-2, 2.41780_72517_74506_11770e-1,
     1.27045_82524_52368_38258e+0, 3.64784_83247_63204_60504e+0, 5.76949_72214_60691_40550e+0,
     4.63033_78461_56545_29590e+0, 1.42343_71107_49683_57734e+0),
    (1.05075_00716_44416_84324e-9, 5.47593_80849_95344_94600e-4, 1.51986_66563_61645_71966e-2,
     1.48103_97642_74800_74590e-1, 6.89767_33498_51000_04550e-1, 1.67638_48301_83803_84940e+0,
     2.05319_16266_37758_82187e+0, 1.0))
_AS241_FAR = (
    (2.01033_43992_92288_13265e-7, 2.71155_55687_43487_57815e-5, 1.24266_09473_88078_43860e-3,
     2.65321_89526_57612_30930e-2, 2.96560_57182_85048_91230e-1, 1.78482_65399_17291_33580e+0,
     5.46378_49111_64114_36990e+0, 6.65790_46435_01103_77720e+0),
    (2.04426_31033_89939_78564e-15, 1.42151_17583_16445_88870e-7, 1.84631_83175_10054_68180e-5,
     7.86869_13114_56132_59100e-4, 1.48753_61290_85061_48525e-2, 1.36929_88092_27358_05310e-1,
     5.99832_20655_58879_37690e-1, 1.0))


def _horner(r: np.ndarray, coefficients: tuple[float, ...]) -> np.ndarray:
    acc = coefficients[0] * r + coefficients[1]
    for c in coefficients[2:]:
        acc = acc * r + c
    return acc


def _libm(f, x: np.ndarray) -> np.ndarray:
    """``math.log`` or ``math.exp`` of each element.  numpy's own kernels
    may differ from the C library in the last bit, which would move
    dataset bytes."""
    return np.fromiter(map(f, x.tolist()), dtype=float, count=x.size)


def _normal_quantile(p: np.ndarray) -> np.ndarray:
    """``NormalDist().inv_cdf`` of each probability in (0, 1), operation
    for operation (mu + x * sigma with mu = 0 and sigma = 1 is x, which is
    never -0.0)."""
    q = p - 0.5
    x = np.empty_like(p)
    central = np.abs(q) <= 0.425
    qc = q[central]
    r = 0.180625 - qc * qc
    x[central] = _horner(r, _AS241_CENTRAL[0]) * qc / _horner(r, _AS241_CENTRAL[1])
    qt, pt = q[~central], p[~central]
    r = np.sqrt(-_libm(math.log, np.where(qt <= 0.0, pt, 1.0 - pt)))
    xt = np.empty_like(r)
    for part, shift, (num, den) in ((r <= 5.0, 1.6, _AS241_NEAR), (r > 5.0, 5.0, _AS241_FAR)):
        rs = r[part] - shift
        xt[part] = _horner(rs, num) / _horner(rs, den)
    x[~central] = np.where(qt < 0.0, -xt, xt)
    return x


def _lognormal(u: np.ndarray, log_mean: np.ndarray, log_sigma: np.ndarray) -> np.ndarray:
    return _libm(math.exp, log_mean + log_sigma * _normal_quantile(np.maximum(u, _U_FLOOR)))


def _draws_per_user(spec: GeneratorSpec) -> int:
    """Uniforms drawn per user up front: home region, outlier flag and
    activity, one count per activity, and five per trip for the mean trip
    count plus six standard deviations (at most every activity's cap)."""
    rate = spec.trips_per_user
    trips = min(math.ceil(rate + 6.0 * math.sqrt(rate)), spec.dims.num_activities * _POISSON_CAP)
    return 3 + spec.dims.num_activities + 5 * trips


def _hash(value: np.ndarray, step: tuple[int, int]) -> np.ndarray:
    """One SeedSequence hash of uint32 words, with that call's constants;
    uint32 arrays wrap, as the C does."""
    value = (value ^ step[0]) * step[1]
    return value ^ value >> 16


def _hash_steps(constant: int, multiplier: int, calls: int) -> list[tuple[int, int]]:
    """The (xor, multiply) constants of successive SeedSequence hash calls."""
    steps = []
    for _ in range(calls):
        steps.append((constant, constant * multiplier & _MASK32))
        constant = steps[-1][1]
    return steps


_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1
# SeedSequence's constants (numpy.random.bit_generator, after O'Neill's
# seed_seq_fe): 16 hash calls fill and mix the pool, 8 hash the state out
_HASH_POOL = _hash_steps(0x43B0D7E5, 0x931E8875, 16)
_HASH_STATE = _hash_steps(0x8B51F9DD, 0x58F38DED, 8)
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _pcg64_seeds(seeds: list[int]):
    """The (state, inc) that ``np.random.PCG64(seed)`` starts from, for
    each seed in [0, 2**64) in turn; OverflowError before the first on any
    other seed.

    ``SeedSequence(seed)`` hashes the seed's 32-bit words (one below 2**32,
    two above; the pool's other words hash 0, as for no word) into a pool of
    four, mixes it and hashes it out into ``generate_state(4, np.uint64)``:
    the high and low words of PCG64's 128-bit seed ``s`` and stream ``q``.
    That runs in uint32 arithmetic for all seeds at once; PCG64's two LCG
    steps from ``s`` and ``q`` then run on Python ints, one seed at a time
    (NumPy NEP 19; O'Neill 2014).
    """
    low, high = np.array(seeds, dtype="<u8").view("<u4").reshape(-1, 2).T
    zero = np.zeros_like(low)
    pool = [_hash(word, step) for word, step in zip((low, high, zero, zero), _HASH_POOL)]
    for (src, dst), step in zip(itertools.permutations(range(4), 2), _HASH_POOL[4:]):
        mixed = pool[dst] * _MIX_L - _hash(pool[src], step) * _MIX_R
        pool[dst] = mixed ^ mixed >> 16
    state = [_hash(pool[i % 4], step) for i, step in enumerate(_HASH_STATE)]
    # each seed's s and q as one little-endian 256-bit int, s below
    table = np.stack([state[i] for i in (2, 3, 0, 1, 6, 7, 4, 5)], axis=1).astype("<u4").tobytes()
    for at in range(0, len(table), 32):
        sq = int.from_bytes(table[at:at + 32], "little")
        inc = (sq >> 128 << 1 | 1) & _MASK128
        yield ((inc + (sq & _MASK128)) * _PCG64_MULT + inc) & _MASK128, inc


def _uniforms(seeds: list[int], width: int) -> np.ndarray:
    """Row i: the first ``width`` uniforms of ``np.random.default_rng(seeds[i])``,
    drawn by one Generator pointed at each seed's PCG64 state in turn."""
    u = np.empty((len(seeds), width))
    bit_generator = np.random.PCG64(0)
    generator = np.random.Generator(bit_generator)
    for row, (state, inc) in zip(u, _pcg64_seeds(seeds)):
        bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}
        generator.random(out=row)
    return u


def _draw_users(spec: GeneratorSpec, seeds: list[int], width: int, region_cdf: np.ndarray,
                tables: list[tuple[np.ndarray, int]]) -> tuple[np.ndarray, ...]:
    """The trips of the users with these seeds as (user, region, activity,
    direction, distance, duration) columns, by user and then in draw order.

    Each user's stream, the one ``np.random.default_rng(seed)`` gives, is
    drawn as ``width`` uniforms at once by :func:`_uniforms`, which seeds
    the block's users together and keeps one Generator for all, and every
    step below reads the next uniforms of all users together, in the order
    a user's draws consume them: home region, outlier flag, the outlier
    activity if flagged, then per activity a count followed by that many
    trips of four uniforms (home or away, direction, distance, duration),
    five for an away trip, whose region takes one more.  A user who may
    need more than ``width`` is drawn again from the start, twice as wide.
    """
    u = _uniforms(seeds, width)
    num_activities = spec.dims.num_activities
    home = _regions(region_cdf, u[:, 0])
    outlier = u[:, 1] < spec.outlier_fraction
    outlier_activity = np.where(
        outlier, np.minimum((u[:, 2] * num_activities).astype(np.int64), num_activities - 1), -1)
    pos = 2 + outlier.astype(np.int64)  # each user's next uniform
    short = np.zeros(len(seeds), dtype=bool)  # users who may run past the width
    users, starts, activities = [], [], []
    for a, table in enumerate(tables):
        short |= pos + 5 > width  # a count or a trip reads at most five uniforms
        drawing = np.flatnonzero(~short)
        counts = np.zeros(len(seeds), dtype=np.int64)
        counts[drawing] = _poisson_counts(u[drawing, pos[drawing]], table)
        pos += 1
        live, taken = np.flatnonzero(counts), 0
        while live.size:  # trip number `taken` of activity a for each live user
            at = pos[live]
            fits = at + 5 <= width
            short[live[~fits]] = True
            live, at = live[fits], at[fits]
            users.append(live)
            starts.append(at)
            activities.append(np.full(live.size, a))
            pos[live] = at + 4 + (u[live, at] >= _HOME_REGION_SHARE)
            taken += 1
            live = live[counts[live] > taken]
    user, at, activity = (np.concatenate([np.zeros(0, dtype=np.int64)] + col)
                          for col in (users, starts, activities))
    order = np.argsort(user, kind="stable")
    order = order[~short[user[order]]]
    user, at, activity = user[order], at[order], activity[order]
    away = u[user, at] >= _HOME_REGION_SHARE
    region = np.where(away, _regions(region_cdf, u[user, at + 1]), home[user])
    at += 1 + away
    direction = np.minimum((u[user, at] * 3).astype(np.int64), 2)
    boost = np.where(activity == outlier_activity[user], spec.outlier_multiplier, 1.0)
    params = np.array([(p.distance_log_mean, p.distance_log_sigma,
                        p.duration_log_mean, p.duration_log_sigma)
                       for p in spec.activity_profiles])[activity]
    distance = boost * _lognormal(u[user, at + 1], params[:, 0], params[:, 1])
    duration = boost * _lognormal(u[user, at + 2], params[:, 2], params[:, 3])
    columns = (user, region, activity, direction, distance, duration)
    redo = np.flatnonzero(short)
    if redo.size:
        again = _draw_users(spec, [seeds[i] for i in redo], 2 * width, region_cdf, tables)
        merged = [np.concatenate(pair) for pair in zip(columns, (redo[again[0]], *again[1:]))]
        order = np.argsort(merged[0], kind="stable")
        columns = tuple(col[order] for col in merged)
    return columns


def generate(spec: GeneratorSpec, users: range | None = None) -> WeekDataset:
    """Sample one synthetic week, or the users of ``users`` (a range of
    indices into ``range(spec.num_users)``), fully deterministic from the
    spec.

    User i is ``u{i:06d}`` and draws from a seed derived from that id alone,
    so a range of users is drawn exactly as in the whole week, and neither
    generation order nor a split between processes (see
    :func:`generate_csv`) can change the data.  Users are drawn in blocks
    of about _BLOCK_DRAWS uniforms.
    """
    users = range(spec.num_users) if users is None else users
    if not 0 <= users.start <= users.stop <= spec.num_users:
        raise ValueError(f"{users} is not a range of the {spec.num_users} users")
    region_cdf = _zipf_cdf(spec.dims.num_regions, spec.region_zipf_s)
    tables = [_poisson_table(spec.trips_per_user * p.weight) for p in spec.activity_profiles]
    user_ids = tuple(f"u{i:06d}" for i in users)
    width = _draws_per_user(spec)
    block = max(1, _BLOCK_DRAWS // width)
    parts = [(np.zeros(0, dtype=np.int64),) * 4 + (np.zeros(0),) * 2]
    for lo in range(0, len(user_ids), block):
        seeds = [derive_seed(spec.seed, uid) for uid in user_ids[lo:lo + block]]
        user, *columns = _draw_users(spec, seeds, width, region_cdf, tables)
        parts.append((user + lo, *columns))
    user, *columns = (np.concatenate(col) for col in zip(*parts))
    offsets = np.concatenate(([0], np.cumsum(np.bincount(user, minlength=len(user_ids)))))
    return WeekDataset(user_ids, offsets, *columns)


def generate_csv(path, spec: GeneratorSpec) -> int:
    """Write the records of ``generate(spec)`` to ``path``: the header line,
    then :func:`schema.write_record_rows`, byte for byte; the number of records.

    The users are drawn and written as two halves, split at
    ``num_users // 2``, by :func:`schema.write_in_halves`, which draws the
    second half in a forked child when the expected rows,
    ``num_users * trips_per_user``, are many; each half keeps its record
    count in shared memory.  OSError when the child fails, which leaves no
    file at ``path``.
    """
    split = spec.num_users // 2
    records = np.frombuffer(mmap.mmap(-1, 16), dtype=np.int64)

    def half(k: int, users: range):
        def write(fh):
            data = generate(spec, users)
            write_record_rows(fh, data)
            records[k] = data.num_records
        return write

    write_in_halves(path, RECORD_CSV_HEADER, half(0, range(split)),
                    half(1, range(split, spec.num_users)), spec.num_users * spec.trips_per_user)
    return int(records.sum())


@dataclass(frozen=True, eq=False)
class GroundTruth:
    """Exact unclipped totals of the cells some user's vector reaches.

    ``flat`` holds those cells in increasing order, ``totals`` their sums
    over users in user order and ``devices`` the number of users with a
    nonzero value in each.  ``order`` lists them in order of first
    appearance (users in order, each user's cells in the order of their
    first addend), the order evaluation adds and reports them in.
    """

    dims: Dimensions
    flat: np.ndarray
    totals: np.ndarray
    devices: np.ndarray
    order: np.ndarray


def ground_truth(data: WeekDataset, dims: Dimensions) -> GroundTruth:
    """Exact unclipped totals plus per-cell contributing-device counts.

    The cells reached so far are kept sorted, each with its total, device
    count and the (user, first) of the row that first reached it, behind a
    sentinel past the domain.  Blocks of users are batched until a batch
    holds at least as many rows as there are cells reached; each batch
    inserts the cells it reaches first and adds its rows by user and then
    cell, so each cell's addends come in user order.  So each merge costs
    about as much as its batch, the whole pass grows with the rows and not
    with blocks times cells reached, and nothing domain-sized is allocated.
    """
    reached = np.array([dims.total_cells])
    totals, devices = np.zeros(1), np.zeros(1, dtype=np.int64)
    first_user, first = np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64)
    batch = []  # per block: its rows' users, cells, values and firsts, by user and then cell
    blocks = user_cells(data, dims, ScaleMatrix.ones(dims.num_activities))
    for rows in itertools.chain(blocks, [None]):
        if rows is not None:
            batch.append((rows.user, rows.cell, rows.value, rows.first))
            if sum(cells.size for _, cells, _, _ in batch) < reached.size - 1:
                continue
        elif not batch:
            break
        users, cells, values, firsts = (np.concatenate(column) for column in zip(*batch))
        batch = []
        slot = np.searchsorted(reached, cells)
        fresh = np.flatnonzero(reached[slot] != cells)
        new_cells, at = np.unique(cells[fresh], return_index=True)  # at: its first user's row
        place = np.searchsorted(reached, new_cells)
        reached = np.insert(reached, place, new_cells)
        totals = np.insert(totals, place, 0.0)
        devices = np.insert(devices, place, 0)
        first_user = np.insert(first_user, place, users[fresh[at]])
        first = np.insert(first, place, firsts[fresh[at]])
        slot += np.searchsorted(new_cells, cells)  # the slots after the insert
        np.add.at(totals, slot, values)  # each cell's rows come in user order
        np.add.at(devices, slot, 1)
    return GroundTruth(dims, reached[:-1], totals[:-1], devices[:-1],
                       np.lexsort((first[:-1], first_user[:-1])))


# --- generator spec file -----------------------------------------------------

def read_generator_spec(path) -> GeneratorSpec:
    """Key-value spec file; the profile table defaults to the packaged one
    and every other optional key to its ``GeneratorSpec`` default."""
    kv = read_kv_file(path)
    known = {"num_users", "num_regions", "region_zipf_s", "trips_per_user",
             "outlier_fraction", "outlier_multiplier", "seed", "profiles"}
    unknown = set(kv) - known
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
    for key in ("num_users", "num_regions", "seed"):
        if key not in kv:
            raise ConfigError(f"{path}: missing mandatory key {key!r}")
    if "profiles" in kv:
        profiles = load_profiles(Path(path).parent / kv["profiles"])
    else:
        profiles = default_profiles()
    optional = {key: _parse_float(kv[key], key) for key in (
        "region_zipf_s", "trips_per_user", "outlier_fraction", "outlier_multiplier") if key in kv}
    return GeneratorSpec(
        num_users=_parse_int(kv["num_users"], "num_users"),
        dims=Dimensions(num_activities=len(profiles),
                        num_regions=_parse_int(kv["num_regions"], "num_regions")),
        activity_profiles=profiles,
        seed=_parse_int(kv["seed"], "seed"),
        **optional,
    )
