import math

import numpy as np
import pytest

from dpgb.cli import EXIT_OK, main
from dpgb.datagen import GeneratorSpec, generate, ground_truth, proxy_pair
from dpgb.evaluation import (
    REFERENCE_WRE_EPS2,
    TARGET_WRE,
    ScoringPlan,
    fit_hyperparameters,
    read_sweep_csv,
    render_metric_table,
    run_seed,
    sweep,
    weighted_relative_error,
    write_curve_data,
    write_sweep_agg_csv,
    write_sweep_csv,
)
from dpgb.mechanisms import finish_release, prepare_joint_clipping
from dpgb.schema import Dimensions, write_records_csv
from conftest import random_histogram
from sparse_reference import SparseHistogram, as_ground_truth, reference_ground_truth
from wre_oracle import brute_force_wre

METRICS = ("num_trips", "distance", "duration")


def score(truth, devices, released, min_devices):
    """One-shot WRE of a sparse release, through a freshly built plan."""
    plan = ScoringPlan.build(as_ground_truth(truth, devices), min_devices)
    return weighted_relative_error(plan, released.to_dense())


def desk_pair(num_users=400, num_regions=8, seed=17):
    return proxy_pair(GeneratorSpec.default(num_users=num_users, num_regions=num_regions,
                                            seed=seed))


def random_instance(rng, dims, n_cells=50):
    """Random truth/devices/released triple for oracle cross-checks."""
    truth_cells, devices, released_cells = {}, {}, {}
    while len(truth_cells) < n_cells:
        cell = (int(rng.integers(dims.num_activities)), int(rng.integers(3)),
                int(rng.integers(dims.num_regions)), int(rng.integers(3)))
        truth_cells[cell] = float(rng.lognormal(3, 2))
        devices[cell] = int(rng.integers(0, 40))
        if rng.random() < 0.8:
            released_cells[cell] = truth_cells[cell] * float(rng.lognormal(0, 0.3))
    truth = SparseHistogram(dims, truth_cells)
    released = SparseHistogram(dims, released_cells)
    return truth, devices, released


class TestWeightedRelativeError:
    def test_exact_release_scores_zero(self, small_dims, rng):
        truth = random_histogram(rng, small_dims, max_cells=20)
        devices = {cell: 10 for cell in truth.cells}
        report = score(truth, devices, truth, min_devices=1)
        for name in METRICS:
            assert report.wre[name] in (0.0, ) or math.isnan(report.wre[name])
        assert report.overall == 0.0 or math.isnan(report.overall)

    def test_worked_two_cell_example(self, small_dims):
        truth = SparseHistogram(small_dims, {(0, 0, 0, 0): 100.0, (1, 0, 0, 0): 300.0})
        released = SparseHistogram(small_dims, {(0, 0, 0, 0): 110.0, (1, 0, 0, 0): 270.0})
        devices = {(0, 0, 0, 0): 50, (1, 0, 0, 0): 50}
        report = score(truth, devices, released, min_devices=1)
        # weights 0.25 / 0.75, both errors 0.10
        assert report.wre["num_trips"] == pytest.approx(0.10, abs=1e-12)

    def test_empty_release_scores_one(self, small_dims, rng):
        truth = random_histogram(rng, small_dims, max_cells=30)
        devices = {cell: 10 for cell in truth.cells}
        report = score(truth, devices, SparseHistogram.empty(small_dims), min_devices=1)
        for name in METRICS:
            if report.eligible[name]:
                assert report.wre[name] == 1.0
                assert report.suppressed_eligible[name] == report.eligible[name]

    def test_device_floor_filters_cells(self, small_dims):
        truth = SparseHistogram(small_dims, {(0, 0, 0, 0): 10.0, (1, 0, 1, 0): 20.0})
        devices = {(0, 0, 0, 0): 5, (1, 0, 1, 0): 50}
        report = score(truth, devices, SparseHistogram.empty(small_dims), min_devices=10)
        assert report.eligible["num_trips"] == 1
        cells = [c for c in report.cells if c.metric == "num_trips"]
        assert len(cells) == 1 and cells[0].devices == 50

    def test_no_eligible_cells_flagged(self, small_dims):
        truth = SparseHistogram(small_dims, {(0, 0, 0, 0): 10.0})
        report = score(truth, {}, truth, min_devices=5)
        assert not report.has_eligible_cells
        assert math.isnan(report.wre["num_trips"])

    def test_matches_brute_force_oracle(self, small_dims, rng):
        for _ in range(30):
            truth, devices, released = random_instance(rng, small_dims)
            min_devices = int(rng.integers(0, 25))
            report = score(truth, devices, released, min_devices)
            expected = brute_force_wre(
                small_dims, truth.cells, devices, released.cells, min_devices)
            for m, name in enumerate(METRICS):
                if expected[m] is None:
                    assert math.isnan(report.wre[name])
                else:
                    assert report.wre[name] == pytest.approx(expected[m], abs=1e-12)

    def test_region_relabeling_invariance(self, small_dims, rng):
        truth, devices, released = random_instance(rng, small_dims, n_cells=30)
        perm = list(rng.permutation(small_dims.num_regions))
        def relabel_hist(h):
            return SparseHistogram(
                small_dims, {(a, m, perm[r], d): v for (a, m, r, d), v in h.cells.items()})
        relabeled_devices = {(a, m, perm[r], d): n for (a, m, r, d), n in devices.items()}
        base = score(truth, devices, released, 5)
        moved = score(relabel_hist(truth), relabeled_devices, relabel_hist(released), 5)
        for name in METRICS:
            if math.isnan(base.wre[name]):
                assert math.isnan(moved.wre[name])
            else:
                assert moved.wre[name] == pytest.approx(base.wre[name], rel=1e-12)

    def test_dims_mismatch_rejected(self, small_dims):
        other = Dimensions(num_activities=3, num_regions=4)
        plan = ScoringPlan.build(as_ground_truth(SparseHistogram.empty(small_dims), {}), 1)
        with pytest.raises(ValueError):
            weighted_relative_error(plan, SparseHistogram.empty(other).to_dense())


def test_weight_table_sums_to_one_per_region(rng):
    dims = Dimensions(num_activities=3, num_regions=5)
    truth = random_histogram(rng, dims, max_cells=60)
    # with no device floor every trip-count cell is eligible and keeps its weight
    plan = ScoringPlan.build(as_ground_truth(truth, {}), 0)
    per_region = {}
    for flat, w in zip(plan.flat[0].tolist(), plan.weights[0].tolist()):
        r = dims.cell_tuple(flat)[2]
        per_region[r] = per_region.get(r, 0.0) + w
    assert len(per_region) == len({r for (_, m, r, _) in truth.cells if m == 0})
    for total in per_region.values():
        assert total == pytest.approx(1.0, rel=1e-12)


def test_plan_matches_the_dict_build():
    # eligible cells in the order they first appear, and weights over
    # region totals that add trip counts in that order, as the dict loop
    # over the reference truth did, bit for bit
    data, _ = desk_pair(num_users=300)
    dims = Dimensions(num_activities=9, num_regions=8)
    truth, devices = reference_ground_truth(data, dims)
    region_totals = {}
    for (a, m, r, d), value in truth.cells.items():
        if m == 0:
            region_totals[r] = region_totals.get(r, 0.0) + value
    columns = tuple(([], [], [], []) for _ in METRICS)
    for (a, m, r, d), value in truth.cells.items():
        if value > 0 and devices[(a, m, r, d)] >= 5:
            columns[m][0].append(dims.cell_index(a, m, r, d))
            columns[m][1].append(value)
            columns[m][2].append(truth.get((a, 0, r, d)) / region_totals[r])
            columns[m][3].append(devices[(a, m, r, d)])
    plan = ScoringPlan.build(ground_truth(data, dims), 5)
    for m in range(3):
        assert plan.flat[m].tolist() == columns[m][0]
        assert plan.truth[m].tolist() == columns[m][1]
        assert plan.weights[m].tolist() == columns[m][2]
        assert plan.devices[m].tolist() == columns[m][3]
    assert sum(len(col[0]) for col in columns) > 100


class TestSweep:
    def test_single_point_sweep_echoes_direct_run(self):
        data, proxy = desk_pair()
        dims = Dimensions(num_activities=9, num_regions=8)
        result = sweep(data, proxy, [2.0], ["joint_clipping"], 1, 7, dims, min_devices=5)
        assert len(result.rows) == 1
        row = result.rows[0]

        fitted = fit_hyperparameters(proxy, dims)
        prepared = prepare_joint_clipping(data, fitted.joint_clip, dims)
        seed = run_seed(7, "joint_clipping", 2.0, 0)
        release = finish_release(prepared, 2.0, 0.0, seed)
        direct = weighted_relative_error(ScoringPlan.build(ground_truth(data, dims), 5),
                                         release.released)
        assert row.seed == seed
        assert row.overall == pytest.approx(direct.overall, rel=1e-12)

    def test_more_budget_never_hurts_much(self):
        data, proxy = desk_pair(num_users=600)
        dims = Dimensions(num_activities=9, num_regions=8)
        result = sweep(data, proxy, [0.5, 8.0], ["activity_metric_scaling"], 10, 3,
                       dims, min_devices=5)
        low, _ = result.mean_std("activity_metric_scaling", 0.5)
        high, _ = result.mean_std("activity_metric_scaling", 8.0)
        assert high < low

    def test_threads_do_not_change_results(self, tmp_path):
        # --threads is only recorded in the manifest; the sweep runs serially
        data, proxy = desk_pair(num_users=150)
        write_records_csv(tmp_path / "data.csv", data)
        write_records_csv(tmp_path / "proxy.csv", proxy)
        outputs = []
        for threads in ("1", "4"):
            out = tmp_path / f"t{threads}"
            assert main(["sweep", "--data", str(tmp_path / "data.csv"),
                         "--proxy", str(tmp_path / "proxy.csv"), "--out", str(out),
                         "--epsilons", "1,4", "--mechanisms", "joint_clipping,budget_split",
                         "--repeats", "3", "--seed", "11", "--min-devices", "5",
                         "--threads", threads]) == EXIT_OK
            assert f"threads = {threads}" in (out / "manifest").read_text()
            outputs.append((out / "sweep.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_run_seed_depends_on_all_parts(self):
        base = run_seed(1, "joint_clipping", 2.0, 0)
        assert base == run_seed(1, "joint_clipping", 2.0, 0)
        assert base != run_seed(1, "joint_clipping", 2.0, 1)
        assert base != run_seed(1, "budget_split", 2.0, 0)
        assert base != run_seed(2, "joint_clipping", 2.0, 0)
        assert base != run_seed(1, "joint_clipping", 4.0, 0)

    def test_output_files(self, tmp_path):
        data, proxy = desk_pair(num_users=150)
        dims = Dimensions(num_activities=9, num_regions=8)
        result = sweep(data, proxy, [1.0, 2.0], ["joint_clipping", "activity_metric_scaling"],
                       2, 5, dims, min_devices=5)
        sweep_path = tmp_path / "sweep.csv"
        agg_path = tmp_path / "agg.csv"
        curve_path = tmp_path / "curve.dat"
        write_sweep_csv(sweep_path, result)
        write_sweep_agg_csv(agg_path, result)
        write_curve_data(curve_path, result)

        lines = sweep_path.read_text().splitlines()
        assert lines[0] == "mechanism,epsilon,repeat,metric,wre"
        assert len(lines) == 1 + 2 * 2 * 2 * 3  # mechs * eps * repeats * metrics

        agg_lines = agg_path.read_text().splitlines()
        assert agg_lines[0] == "mechanism,epsilon,wre_mean,wre_std"
        assert len(agg_lines) == 1 + 2 * 2

        curve = curve_path.read_text()
        assert repr(TARGET_WRE) in curve            # 0.03 reference line
        assert "0.195" in curve                     # reference footer rows
        rows, mechanisms, epsilons, repeats = read_sweep_csv(sweep_path)
        assert set(mechanisms) == {"joint_clipping", "activity_metric_scaling"}
        assert epsilons == (1.0, 2.0)
        assert repeats == 2
        by_key = {(r.mechanism, r.epsilon, r.repeat): r.overall for r in rows}
        for row in result.rows:
            assert by_key[(row.mechanism, row.epsilon, row.repeat)] == pytest.approx(
                row.overall, rel=1e-12)

    def test_render_metric_table(self):
        data, proxy = desk_pair(num_users=150)
        dims = Dimensions(num_activities=9, num_regions=8)
        result = sweep(data, proxy, [2.0], ["joint_clipping"], 2, 5, dims, min_devices=5)
        table = render_metric_table(result, 2.0)
        assert "joint_clipping" in table
        assert "num_trips" in table
        assert str(TARGET_WRE) in table
        for values in REFERENCE_WRE_EPS2.values():
            assert f"{values[0]:.3f}" in table


def test_fit_hyperparameters_uses_slice_quantiles():
    _, proxy = desk_pair(num_users=200)
    dims = Dimensions(num_activities=9, num_regions=8)
    fitted = fit_hyperparameters(proxy, dims)
    assert np.array_equal(fitted.split_clips, fitted.scales.entries)
    assert fitted.ams_clip > 0 and fitted.joint_clip > 0
    cfg = fitted.config_for("activity_metric_scaling", 2.0, 0.0, 9)
    assert cfg.clip == fitted.ams_clip
    cfg = fitted.config_for("budget_split", 2.0, 0.0, 9)
    assert np.array_equal(cfg.clip, fitted.split_clips)
