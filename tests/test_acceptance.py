"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (run with `pytest -v -s` to see them
all).  Heavy artifacts (the desk-scale dataset pair and the shared mechanism
sweep) are built once per module.
"""

import math
import time
from functools import reduce

import numpy as np
import pytest

from dpgb.cli import EXIT_OK, main
from dpgb.dp_core import clip_l1, dense_laplace_noise
from dpgb.evaluation import (
    DEFAULT_EPSILON_GRID,
    DEFAULT_MECHANISMS,
    TARGET_WRE,
    ScoringPlan,
    sweep,
    weighted_relative_error,
)
from dpgb.mechanisms import finish_release
from dpgb.schema import Dimensions, ScaleMatrix
from conftest import default_spec, prepare, proxy_pair, random_dataset, raw_histogram
from sparse_reference import (
    SparseHistogram,
    as_ground_truth,
    make_dataset,
    users_of,
    write_records_csv,
)
from sparse_reference import clip_l1 as reference_clip_l1
from wre_oracle import brute_force_wre

DESK_SEED = 42
SWEEP_SEED = 1
MECHANISMS = ("joint_clipping", "budget_split", "activity_metric_scaling")
METRICS = ("num_trips", "distance", "duration")


def report_line(criterion: int, passed: bool, detail: str) -> bool:
    print(f"\nACCEPTANCE {criterion:2d} {'PASS' if passed else 'FAIL'}: {detail}")
    return passed


@pytest.fixture(scope="module")
def desk():
    """Default desk dataset pair: 10^4 users, 100 regions, heavy tails, outliers."""
    spec = default_spec(num_users=10_000, num_regions=100, seed=DESK_SEED)
    data, proxy = proxy_pair(spec)
    return spec, data, proxy


@pytest.fixture(scope="module")
def shared_sweep(desk):
    """One sweep over 5 budgets x 3 mechanisms x 20 seeds, timed."""
    spec, data, proxy = desk
    start = time.perf_counter()
    result = sweep(data, proxy, (0.5, 1.0, 2.0, 4.0, 8.0), MECHANISMS, 20,
                   SWEEP_SEED, spec.dims, min_devices=20)
    elapsed = time.perf_counter() - start
    return result, elapsed


def test_criterion_1_clip_contract(rng):
    # 10^5 random (v, C) pairs, clipped at once as runs of one vector
    n_pairs = 100_000
    counts = rng.integers(0, 7, size=n_pairs)
    starts = np.concatenate(([0], np.cumsum(counts)))
    values = rng.lognormal(1.0, 2.5, size=int(starts[-1]))
    clips = rng.lognormal(1.0, 2.0, size=n_pairs)

    start = time.perf_counter()
    clipped = clip_l1(values, starts, clips)
    elapsed = time.perf_counter() - start
    bound_violations = identity_violations = 0
    edges = starts.tolist()
    for i, (lo, hi) in enumerate(zip(edges, edges[1:])):
        c = float(clips[i])
        if math.fsum(np.abs(clipped[lo:hi]).tolist()) > c * (1 + 1e-9):
            bound_violations += 1
        if (math.fsum(values[lo:hi].tolist()) <= c
                and clipped[lo:hi].tobytes() != values[lo:hi].tobytes()):
            identity_violations += 1

    ok = bound_violations == 0 and identity_violations == 0 and elapsed < 5.0
    assert report_line(1, ok,
                       f"{n_pairs} random (v, C) pairs, {bound_violations} bound violations, "
                       f"{identity_violations} identity violations, {elapsed:.2f}s (< 5s)")


def test_criterion_2_noise_calibration():
    start = time.perf_counter()
    samples = dense_laplace_noise(5.0, 2024, 1_000_000)
    mean = float(samples.mean())
    var = float(samples.var())
    elapsed = time.perf_counter() - start
    ok = abs(mean) <= 0.05 and abs(var - 50.0) <= 0.05 * 50.0 and elapsed < 5.0
    assert report_line(2, ok,
                       f"10^6 Laplace(5) samples: mean {mean:+.4f} (|.| <= 0.05), "
                       f"var {var:.3f} (50 +- 5%), {elapsed:.2f}s (< 5s)")


def test_criterion_3_sensitivity(rng):
    dims = Dimensions(num_activities=3, num_regions=5)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        base = random_dataset(rng, dims, int(rng.integers(4, 12)), max_records=8)
        extra_records = users_of(random_dataset(rng, dims, 1, max_records=10))[0][1]
        grown = make_dataset(users_of(base) + (("added-user", extra_records),))
        clip = float(rng.lognormal(1.0, 1.0))
        clips = np.exp(rng.normal(0.5, 0.8, size=(3, 3)))
        scales = ScaleMatrix(np.exp(rng.normal(0, 1, size=(3, 3))))

        for prep in (
            lambda d: prepare("activity_metric_scaling", d, clip, dims, scales),
            lambda d: prepare("joint_clipping", d, clip, dims),
        ):
            distance = float(np.abs(
                prep(grown).pre_noise_dense - prep(base).pre_noise_dense).sum())
            worst = max(worst, distance / clip)
            assert distance <= clip * (1 + 1e-9) + 1e-12

        delta = (prepare("budget_split", grown, clips, dims).pre_noise_dense
                 - prepare("budget_split", base, clips, dims).pre_noise_dense)
        # each (activity, metric) slice is a contiguous run of the flat vector
        slice_distances = np.abs(delta).reshape(clips.size, -1).sum(axis=1)
        bounds = clips.reshape(-1)
        worst = max(worst, float(np.max(slice_distances / bounds)))
        assert np.all(slice_distances <= bounds * (1 + 1e-9) + 1e-12)
    elapsed = time.perf_counter() - start
    ok = elapsed < 30.0
    assert report_line(3, ok,
                       f"100 adjacent pairs, all mechanisms: max distance/bound "
                       f"{worst:.12f} (<= 1 + 1e-9), {elapsed:.2f}s (< 30s)")


def test_criterion_4_accounting(rng):
    dims = Dimensions(num_activities=9, num_regions=8)
    data = random_dataset(rng, dims, 150)
    epsilon = 2.0
    scales = ScaleMatrix(np.exp(rng.normal(0, 1, size=(9, 3))))
    clips = np.exp(rng.normal(0.5, 0.8, size=(9, 3)))

    ams = finish_release(prepare("activity_metric_scaling", data, 5.0, dims, scales),
                         epsilon, 0.0, 3)
    joint = finish_release(prepare("joint_clipping", data, 5.0, dims), epsilon, 0.0, 3)
    split = finish_release(prepare("budget_split", data, clips, dims), epsilon, 0.0, 3)

    totals_ok = all(abs(r.ledger.total() - epsilon) <= 1e-12 for r in (ams, joint, split))
    charges = [eps for _, eps in split.ledger.charges]
    split_ok = len(charges) == 9 * 3 and len(set(charges)) == 1
    singles_ok = len(ams.ledger.charges) == 1 and len(joint.ledger.charges) == 1
    ok = totals_ok and split_ok and singles_ok
    assert report_line(4, ok,
                       f"ledger totals == {epsilon} to 1e-12 for all mechanisms; "
                       f"budget_split: {len(charges)} equal charges of {charges[0]!r}")


def test_criterion_5_pipeline_identities(rng):
    dims = Dimensions(num_activities=4, num_regions=6)
    data = random_dataset(rng, dims, 50)
    ones = ScaleMatrix.ones(4)
    raw_norms = [raw_histogram(recs, dims).l1_norm() for _, recs in users_of(data)]
    clip = float(np.median([n for n in raw_norms if n > 0]))  # clipping really bites

    exact = prepare("joint_clipping", data, clip, dims).pre_noise_dense
    expected = reduce(lambda x, y: x.add(y),
                      [reference_clip_l1(raw_histogram(recs, dims), clip)
                       for _, recs in users_of(data)],
                      SparseHistogram.empty(dims))
    identity_a = np.array_equal(exact, expected.to_dense())

    joint = finish_release(prepare("joint_clipping", data, clip, dims), 2.0, 0.0, 99)
    ams = finish_release(prepare("activity_metric_scaling", data, clip, dims, ones), 2.0, 0.0, 99)
    identity_b = np.array_equal(joint.released, ams.released)

    ok = identity_a and identity_b
    assert report_line(5, ok,
                       f"pre-noise aggregate == clipped truth bit-exact: {identity_a}; "
                       f"S==1 scaling == joint clipping bit-identical: {identity_b}")


def test_criterion_6_thresholding_tail():
    # tau=3, eps=2, C=10, S==1: a true-zero cell survives iff Lap(5) >= 15,
    # probability exp(-3)/2
    regions = 1235  # 9 * 3 * 1235 * 3 = 100,035 true-zero cells
    dims = Dimensions(num_activities=9, num_regions=regions)
    prep = prepare("joint_clipping", make_dataset([]), 10.0, dims)
    result = finish_release(prep, 2.0, 3.0, 77)
    fraction = np.count_nonzero(result.released) / dims.total_cells
    expected = 0.5 * math.exp(-3.0)
    ok = abs(fraction - expected) <= 0.002
    assert report_line(6, ok,
                       f"{dims.total_cells} zero cells: survivor fraction {fraction:.4f} "
                       f"(expected {expected:.4f} +- 0.002)")


def test_criterion_7_mechanism_ordering(shared_sweep):
    result, elapsed = shared_sweep
    means, ses = {}, {}
    for kind in MECHANISMS:
        mean, std = result.mean_std(kind, 2.0)
        means[kind], ses[kind] = mean, std / math.sqrt(result.repeats)

    def beats(a, b):
        gap = means[b] - means[a]
        return gap > 2.0 * math.hypot(ses[a], ses[b]), gap

    beats_split, gap_split = beats("activity_metric_scaling", "budget_split")
    beats_joint, gap_joint = beats("activity_metric_scaling", "joint_clipping")
    ok = beats_split and beats_joint and elapsed < 180.0
    assert report_line(7, ok,
                       f"eps=2, 20 seeds: scaling {means['activity_metric_scaling']:.3f} "
                       f"< split {means['budget_split']:.3f} (gap {gap_split:.3f}) and "
                       f"< joint {means['joint_clipping']:.3f} (gap {gap_joint:.3f}), "
                       f"both > 2 SE; sweep took {elapsed:.0f}s (< 180s)")


def test_criterion_8_joint_clipping_magnitude_effect(shared_sweep):
    result, _ = shared_sweep
    metric_means = result.metric_means("joint_clipping", 2.0)
    ratio = metric_means["num_trips"] / metric_means["duration"]
    ok = ratio >= 2.0
    assert report_line(8, ok,
                       f"joint clipping at eps=2: duration WRE {metric_means['duration']:.3f} "
                       f"vs num_trips {metric_means['num_trips']:.3f}, ratio {ratio:.1f}x (>= 2x)")


def test_criterion_9_epsilon_monotonicity(shared_sweep):
    result, _ = shared_sweep
    inversions = {}
    for kind in MECHANISMS:
        means = [result.mean_std(kind, eps)[0] for eps in result.epsilons]
        inversions[kind] = sum(1 for lo, hi in zip(means, means[1:]) if hi > lo)
    ok = all(count <= 1 for count in inversions.values())
    assert report_line(9, ok,
                       "inversions across eps in {0.5, 1, 2, 4, 8} (<= 1 allowed): "
                       + ", ".join(f"{k}={v}" for k, v in inversions.items()))


def test_criterion_10_evaluation_oracle(rng):
    dims = Dimensions(num_activities=2, num_regions=4)
    worst = 0.0
    for _ in range(100):
        truth_cells, devices, released_cells = {}, {}, {}
        while len(truth_cells) < 50:
            cell = (int(rng.integers(2)), int(rng.integers(3)),
                    int(rng.integers(4)), int(rng.integers(3)))
            truth_cells[cell] = float(rng.lognormal(3, 2))
            devices[cell] = int(rng.integers(0, 30))
            if rng.random() < 0.8:
                released_cells[cell] = truth_cells[cell] * float(rng.lognormal(0, 0.4))
        min_devices = int(rng.integers(0, 20))
        truth = SparseHistogram(dims, truth_cells)
        released = SparseHistogram(dims, released_cells)
        report = weighted_relative_error(
            ScoringPlan.build(as_ground_truth(truth, devices), min_devices), released.to_dense())
        expected = brute_force_wre(dims, truth_cells, devices, released_cells, min_devices)
        for m, name in enumerate(METRICS):
            if expected[m] is None:
                assert math.isnan(report.wre[name])
            else:
                worst = max(worst, abs(report.wre[name] - expected[m]))
                assert abs(report.wre[name] - expected[m]) <= 1e-12
    assert report_line(10, True,
                       f"100 random 50-cell instances, max |harness - brute force| "
                       f"= {worst:.2e} (<= 1e-12)")


def test_criterion_11_end_to_end_sweep(desk, tmp_path):
    _, data, proxy = desk
    data_path, proxy_path = tmp_path / "data.csv", tmp_path / "proxy.csv"
    write_records_csv(data_path, data)
    write_records_csv(proxy_path, proxy)
    out_dir = tmp_path / "sweep"

    start = time.perf_counter()
    code = main(["sweep", "--data", str(data_path), "--proxy", str(proxy_path),
                 "--out", str(out_dir), "--repeats", "20", "--seed", str(SWEEP_SEED),
                 "--min-devices", "20", "--num-activities", "9", "--num-regions", "100"])
    elapsed = time.perf_counter() - start

    # the error-vs-budget series: one sweep_agg.csv row per (mechanism, epsilon)
    agg_rows = (out_dir / "sweep_agg.csv").read_text().splitlines()[1:]
    per_mechanism = {kind: [row.split(",")[1] for row in agg_rows if row.startswith(kind + ",")]
                     for kind in DEFAULT_MECHANISMS}
    grid_ok = len(agg_rows) == 3 * len(DEFAULT_EPSILON_GRID) and all(
        epsilons == [repr(eps) for eps in DEFAULT_EPSILON_GRID]
        for epsilons in per_mechanism.values())
    table = (out_dir / "metric_table.txt").read_text().splitlines()
    has_reference = f"utility target: {TARGET_WRE}" in table
    sweep_lines = (out_dir / "sweep.csv").read_text().splitlines()
    rows_ok = len(sweep_lines) == 1 + 3 * len(DEFAULT_EPSILON_GRID) * 20 * 3

    ok = code == EXIT_OK and elapsed < 300.0 and has_reference and grid_ok and rows_ok
    assert report_line(11, ok,
                       f"CLI sweep 3 mechanisms x {len(DEFAULT_EPSILON_GRID)} budgets x 20 seeds "
                       f"in {elapsed:.0f}s (< 300s); sweep_agg.csv has "
                       f"{len(DEFAULT_EPSILON_GRID)} budgets per mechanism: {grid_ok}, and "
                       f"metric_table.txt the {TARGET_WRE} target: {has_reference}")
