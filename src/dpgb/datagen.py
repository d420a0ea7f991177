"""Synthetic heavy-tailed mobility traffic.

Stands in for a production proxy dataset.  The generator is built to exhibit
the structure the mechanisms care about: per-(activity, metric) magnitudes
spanning orders of magnitude (a walk is a couple of kilometers, a flight is a
thousand), skewed region popularity, and outlier users whose extremes sit in
different activities.

Sampling uses only uniform draws from a per-user seeded PCG64 stream plus
deterministic inverse-CDF transforms (normal quantile from the stdlib,
sequential Poisson inversion, cumulative-table lookups), so a spec and seed
pin the dataset bit-for-bit across platforms.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path
from statistics import NormalDist

import numpy as np

from .dp_core import _U_FLOOR, derive_seed
from .schema import (
    ConfigError,
    Dimensions,
    ScaleMatrix,
    WeekDataset,
    _parse_float,
    _parse_int,
    read_kv_file,
    user_cells,
)

_NORMAL = NormalDist()
_HOME_REGION_SHARE = 0.9  # remaining trips resample the region popularity table
# exp(-lam) is a normal float below about 708.4, subnormal above, zero above about 745.1
_POISSON_LOG_SPACE = 708.0

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
    week_id: str = "synthetic-week"

    def __post_init__(self) -> None:
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

    @classmethod
    def default(cls, num_users: int = 10_000, num_regions: int = 100,
                seed: int = 0, **overrides) -> "GeneratorSpec":
        profiles = default_profiles()
        return cls(
            num_users=num_users,
            dims=Dimensions(num_activities=len(profiles), num_regions=num_regions),
            activity_profiles=profiles,
            seed=seed,
            **overrides,
        )


def load_profiles(path_or_file) -> tuple[ActivityProfile, ...]:
    """Profile table CSV; rows must be the dense activity indices 0..A-1."""
    if hasattr(path_or_file, "read"):
        rows = list(csv.reader(path_or_file))
    else:
        with open(path_or_file, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    if not rows or rows[0] != PROFILE_CSV_HEADER:
        raise ConfigError(f"profile table: bad header, expected {PROFILE_CSV_HEADER}")
    profiles = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 7:
            raise ConfigError(f"profile table line {lineno}: expected 7 fields")
        if int(row[0]) != len(profiles):
            raise ConfigError(f"profile table line {lineno}: activity indices must be dense")
        profiles.append(ActivityProfile(
            name=row[1], weight=float(row[2]),
            distance_log_mean=float(row[3]), distance_log_sigma=float(row[4]),
            duration_log_mean=float(row[5]), duration_log_sigma=float(row[6])))
    if not profiles:
        raise ConfigError("profile table has no rows")
    return tuple(profiles)


def default_profiles() -> tuple[ActivityProfile, ...]:
    ref = resources.files("dpgb").joinpath("data/default_profiles.csv")
    with ref.open("r", encoding="utf-8") as fh:
        return load_profiles(fh)


def _zipf_cdf(num_regions: int, s: float) -> np.ndarray:
    weights = 1.0 / np.arange(1, num_regions + 1) ** s
    return np.cumsum(weights / weights.sum())


def _pick(cdf: np.ndarray, u: float) -> int:
    return min(int(np.searchsorted(cdf, u, side="right")), len(cdf) - 1)


def _poisson_inverse(u: float, lam: float) -> int:
    """Smallest k with P(X <= k) >= u for X ~ Poisson(lam), by sequential search.

    Below _POISSON_LOG_SPACE the pmf runs by the recurrence p *= lam / k from
    exp(-lam), which is what every existing dataset was drawn with.  From
    there on exp(-lam) loses precision to subnormal range (and then
    underflows to zero), so each term is computed in log space instead, and
    the search stops past the mode once a term no longer changes the running
    sum.
    """
    if lam <= 0:
        return 0
    if lam >= _POISSON_LOG_SPACE:
        log_lam = math.log(lam)
        k, cdf = 0, math.exp(-lam)
        while u > cdf and k < 100_000:
            k += 1
            p = math.exp(k * log_lam - lam - math.lgamma(k + 1))
            if k > lam and cdf + p == cdf:
                break
            cdf += p
        return k
    k, p = 0, math.exp(-lam)
    cdf = p
    while u > cdf and k < 100_000:
        k += 1
        p *= lam / k
        cdf += p
    return k


def _lognormal(u: float, log_mean: float, log_sigma: float) -> float:
    z = _NORMAL.inv_cdf(max(u, _U_FLOOR))
    return math.exp(log_mean + log_sigma * z)


def _user_trips(rng: np.random.Generator, spec: GeneratorSpec,
                region_cdf: np.ndarray) -> list[tuple]:
    """One user's (region, activity, direction, distance, duration) trips."""
    home = _pick(region_cdf, rng.random())
    outlier_activity = -1
    if rng.random() < spec.outlier_fraction:
        outlier_activity = min(
            int(rng.random() * spec.dims.num_activities), spec.dims.num_activities - 1)
    records: list[tuple] = []
    for a, profile in enumerate(spec.activity_profiles):
        count = _poisson_inverse(rng.random(), spec.trips_per_user * profile.weight)
        boost = spec.outlier_multiplier if a == outlier_activity else 1.0
        for _ in range(count):
            region = home if rng.random() < _HOME_REGION_SHARE else _pick(region_cdf, rng.random())
            direction = min(int(rng.random() * 3), 2)
            distance = boost * _lognormal(
                rng.random(), profile.distance_log_mean, profile.distance_log_sigma)
            duration = boost * _lognormal(
                rng.random(), profile.duration_log_mean, profile.duration_log_sigma)
            records.append((region, a, direction, distance, duration))
    return records


def generate(spec: GeneratorSpec) -> WeekDataset:
    """Sample one synthetic week, fully deterministic from the spec.

    Each user gets an independently derived seed, so generation order (or a
    parallel implementation) cannot change the data.
    """
    region_cdf = _zipf_cdf(spec.dims.num_regions, spec.region_zipf_s)
    user_ids = tuple(f"u{i:06d}" for i in range(spec.num_users))
    trips = [_user_trips(np.random.default_rng(derive_seed(spec.seed, uid)), spec, region_cdf)
             for uid in user_ids]
    # small indices and every float convert to float64 and back exactly
    columns = np.array([t for user in trips for t in user], dtype=float).reshape(-1, 5).T
    offsets = np.cumsum([0] + [len(user) for user in trips])
    return WeekDataset(spec.week_id, user_ids, offsets, *columns)


def proxy_pair(spec: GeneratorSpec) -> tuple[WeekDataset, WeekDataset]:
    """Evaluation dataset plus a same-shape proxy from a shifted seed."""
    proxy_spec = replace(spec, seed=spec.seed + 1, week_id=spec.week_id + "-proxy")
    return generate(spec), generate(proxy_spec)


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
    count and first position, behind a sentinel past the domain.  Each
    block of users inserts the cells it reaches first and adds its rows in
    user order, so nothing domain-sized is allocated.
    """
    reached = np.array([dims.total_cells])
    first, totals, devices = np.zeros(1, dtype=np.int64), np.zeros(1), np.zeros(1, dtype=np.int64)
    position = 0
    for rows in user_cells(data, dims, ScaleMatrix.ones(dims.num_activities)):
        order = np.argsort(rows.first, kind="stable")
        cells = rows.cell[order]
        fresh = np.flatnonzero(reached[np.searchsorted(reached, cells)] != cells)
        new_cells, at = np.unique(cells[fresh], return_index=True)
        place = np.searchsorted(reached, new_cells)
        reached = np.insert(reached, place, new_cells)
        first = np.insert(first, place, position + fresh[at])
        totals = np.insert(totals, place, 0.0)
        devices = np.insert(devices, place, 0)
        slot = np.searchsorted(reached, cells)
        np.add.at(totals, slot, rows.value[order])
        np.add.at(devices, slot, 1)
        position += cells.size
    return GroundTruth(dims, reached[:-1], totals[:-1], devices[:-1], np.argsort(first[:-1]))


# --- generator spec file -----------------------------------------------------

def read_generator_spec(path, profiles_base=None) -> GeneratorSpec:
    """Key-value spec file; the profile table defaults to the packaged one."""
    kv = read_kv_file(path)
    known = {"num_users", "num_regions", "region_zipf_s", "trips_per_user",
             "outlier_fraction", "outlier_multiplier", "seed", "week_id", "profiles"}
    unknown = set(kv) - known
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
    for key in ("num_users", "num_regions", "seed"):
        if key not in kv:
            raise ConfigError(f"{path}: missing mandatory key {key!r}")
    if "profiles" in kv:
        base = Path(profiles_base) if profiles_base is not None else Path(path).parent
        profiles = load_profiles(base / kv["profiles"])
    else:
        profiles = default_profiles()
    optional_floats = {
        "region_zipf_s": 1.2,
        "trips_per_user": 15.0,
        "outlier_fraction": 0.1,
        "outlier_multiplier": 10.0,
    }
    values = {
        key: (_parse_float(kv[key], key) if key in kv else default)
        for key, default in optional_floats.items()
    }
    return GeneratorSpec(
        num_users=_parse_int(kv["num_users"], "num_users"),
        dims=Dimensions(num_activities=len(profiles),
                        num_regions=_parse_int(kv["num_regions"], "num_regions")),
        activity_profiles=profiles,
        seed=_parse_int(kv["seed"], "seed"),
        week_id=kv.get("week_id", "synthetic-week"),
        **values,
    )
