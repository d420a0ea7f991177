"""Scalar reference for the synthetic generator.

One ``rng.random()`` call per uniform and one loop per trip: the per-user
definition of a dataset that the columnar ``dpgb.datagen.generate`` must
reproduce bit for bit.  It shares only the spec, the per-user seed and
``WeekDataset`` with ``dpgb``; the Poisson inversion, the normal quantile
(the standard library's) and the region picks are its own.
"""

import math
from statistics import NormalDist

import numpy as np

from dpgb.datagen import GeneratorSpec
from dpgb.dp_core import _U_FLOOR, derive_seed
from dpgb.schema import WeekDataset

_NORMAL = NormalDist()
_HOME_REGION_SHARE = 0.9
_POISSON_LOG_SPACE = 708.0


def zipf_cdf(num_regions: int, s: float) -> np.ndarray:
    weights = 1.0 / np.arange(1, num_regions + 1) ** s
    return np.cumsum(weights / weights.sum())


def pick(cdf: np.ndarray, u: float) -> int:
    return min(int(np.searchsorted(cdf, u, side="right")), len(cdf) - 1)


def poisson_inverse(u: float, lam: float) -> int:
    """Smallest k with P(X <= k) >= u for X ~ Poisson(lam), by sequential
    search: the pmf recurrence below lam = 708, log-space terms from there
    on, stopping past the mode once a term no longer changes the sum."""
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


def lognormal(u: float, log_mean: float, log_sigma: float) -> float:
    z = _NORMAL.inv_cdf(max(u, _U_FLOOR))
    return math.exp(log_mean + log_sigma * z)


def user_trips(rng: np.random.Generator, spec: GeneratorSpec,
               region_cdf: np.ndarray) -> list[tuple]:
    """One user's (region, activity, direction, distance, duration) trips."""
    home = pick(region_cdf, rng.random())
    outlier_activity = -1
    if rng.random() < spec.outlier_fraction:
        outlier_activity = min(
            int(rng.random() * spec.dims.num_activities), spec.dims.num_activities - 1)
    records: list[tuple] = []
    for a, profile in enumerate(spec.activity_profiles):
        count = poisson_inverse(rng.random(), spec.trips_per_user * profile.weight)
        boost = spec.outlier_multiplier if a == outlier_activity else 1.0
        for _ in range(count):
            region = home if rng.random() < _HOME_REGION_SHARE else pick(region_cdf, rng.random())
            direction = min(int(rng.random() * 3), 2)
            distance = boost * lognormal(
                rng.random(), profile.distance_log_mean, profile.distance_log_sigma)
            duration = boost * lognormal(
                rng.random(), profile.duration_log_mean, profile.duration_log_sigma)
            records.append((region, a, direction, distance, duration))
    return records


def reference_generate(spec: GeneratorSpec) -> WeekDataset:
    """The dataset of ``spec``, one user and one uniform at a time."""
    region_cdf = zipf_cdf(spec.dims.num_regions, spec.region_zipf_s)
    user_ids = tuple(f"u{i:06d}" for i in range(spec.num_users))
    trips = [user_trips(np.random.default_rng(derive_seed(spec.seed, uid)), spec, region_cdf)
             for uid in user_ids]
    columns = np.array([t for user in trips for t in user], dtype=float).reshape(-1, 5).T
    offsets = np.cumsum([0] + [len(user) for user in trips])
    return WeekDataset(user_ids, offsets, *columns)
