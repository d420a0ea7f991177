import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))  # wre_oracle, sparse_reference imports

from dpgb import schema
from dpgb.datagen import GeneratorSpec, default_profiles, generate
from dpgb.mechanisms import prepare_release
from dpgb.schema import Dimensions, MechanismConfig, ScaleMatrix
from sparse_reference import SparseHistogram, TripRecord, make_dataset, raw_histogram  # noqa: F401


@pytest.fixture
def small_dims():
    return Dimensions(num_activities=2, num_regions=4)


@pytest.fixture(params=["inline", "forked"])
def second_half(request, monkeypatch):
    """How a histogram or records file is written and read: with the size
    constants at their defaults, so a small file is written and read in
    this process, or with them forced to 0, so a forked child does the
    second half of every file."""
    if request.param == "forked":
        monkeypatch.setattr(schema, "_FORK_ROWS", 0)
        monkeypatch.setattr(schema, "_FORK_BYTES", 0)
    return request.param


@pytest.fixture
def rng():
    return np.random.default_rng(20240501)


def random_histogram(rng, dims, max_cells=8, magnitude=10.0):
    """Random sparse non-negative histogram for property sweeps."""
    n = int(rng.integers(0, max_cells + 1))
    cells = {}
    for _ in range(n):
        cell = (int(rng.integers(dims.num_activities)), int(rng.integers(3)),
                int(rng.integers(dims.num_regions)), int(rng.integers(3)))
        cells[cell] = float(rng.lognormal(0.0, 1.5) * magnitude)
    return SparseHistogram(dims, cells)


def random_records(rng, dims, n):
    return [
        TripRecord(
            region=int(rng.integers(dims.num_regions)),
            activity=int(rng.integers(dims.num_activities)),
            direction=int(rng.integers(3)),
            distance_km=float(rng.lognormal(1.0, 1.0)),
            duration_s=float(rng.lognormal(6.5, 0.8)),
        )
        for _ in range(n)
    ]


def random_dataset(rng, dims, num_users, max_records=12):
    users = []
    for i in range(num_users):
        n = int(rng.integers(0, max_records + 1))
        users.append((f"u{i:04d}", tuple(random_records(rng, dims, n))))
    return make_dataset(users)


def one_user(records):
    """A one-user dataset holding ``records``."""
    return make_dataset([("u", records)])


def prepare(kind, data, clip, dims, scales=None):
    """``prepare_release`` of a ``kind`` config with this clip and scale
    matrix (default all ones); prepare reads nothing else of the config."""
    if scales is None:
        scales = ScaleMatrix.ones(dims.num_activities)
    return prepare_release(MechanismConfig(1.0, kind, clip, scales, 0.0, 0), data, dims)


def default_spec(num_users=10_000, num_regions=100, seed=0, **overrides):
    """A generator spec over the packaged activity profiles."""
    profiles = default_profiles()
    return GeneratorSpec(
        num_users=num_users,
        dims=Dimensions(num_activities=len(profiles), num_regions=num_regions),
        activity_profiles=profiles,
        seed=seed,
        **overrides,
    )


def proxy_pair(spec):
    """Evaluation dataset plus a same-shape proxy from the next seed."""
    return generate(spec), generate(replace(spec, seed=spec.seed + 1))
