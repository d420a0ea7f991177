import math
import os

import numpy as np
import pytest

from dpgb import evaluation
from dpgb.datagen import ground_truth
from dpgb.evaluation import (
    DEFAULT_MECHANISMS,
    REFERENCE_WRE_EPS2,
    TARGET_WRE,
    ScoringPlan,
    SweepResult,
    fit_hyperparameters,
    render_metric_table,
    run_seed,
    sweep,
    weighted_relative_error,
    write_sweep_agg_csv,
    write_sweep_csv,
)
from dpgb.mechanisms import finish_release
from dpgb.schema import Dimensions
from conftest import default_spec, prepare, proxy_pair, random_histogram
from sparse_reference import SparseHistogram, as_ground_truth, cell_tuple, reference_ground_truth
from wre_oracle import brute_force_wre

METRICS = ("num_trips", "distance", "duration")


def score(truth, devices, released, min_devices):
    """One-shot WRE of a sparse release, through a freshly built plan."""
    plan = ScoringPlan.build(as_ground_truth(truth, devices), min_devices)
    return weighted_relative_error(plan, released.to_dense())


def desk_pair(num_users=400, num_regions=8, seed=17):
    return proxy_pair(default_spec(num_users=num_users, num_regions=num_regions, seed=seed))


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
        plan = ScoringPlan.build(as_ground_truth(truth, devices), 10)
        report = weighted_relative_error(plan, SparseHistogram.empty(small_dims).to_dense())
        assert report.eligible["num_trips"] == 1
        assert plan.devices[0].tolist() == [50]

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
        r = cell_tuple(dims, flat)[2]
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
        result = sweep(data, proxy, [2.0], ["joint_clipping"], 2, 7, dims, min_devices=5)
        assert [row.repeat for row in result.rows] == [0, 1]

        fitted = fit_hyperparameters(proxy, dims)
        prepared = prepare("joint_clipping", data, fitted.joint_clip, dims)
        plan = ScoringPlan.build(ground_truth(data, dims), 5)
        for row in result.rows:
            # each row is the release under its own run_seed, bit for bit
            release = finish_release(prepared, 2.0, 0.0, run_seed(7, "joint_clipping", 2.0,
                                                                  row.repeat))
            direct = weighted_relative_error(plan, release.released)
            assert row.wre == direct.wre
            assert row.overall == direct.overall
        assert result.rows[0].wre != result.rows[1].wre

    def test_rows_and_fit_do_not_depend_on_the_second_process(self, monkeypatch):
        data, proxy = desk_pair(num_users=150)
        dims = Dimensions(num_activities=9, num_regions=8)
        cells = (data, proxy, [1.0, 2.0], DEFAULT_MECHANISMS, 2, 5, dims)
        forked = sweep(*cells, min_devices=5)
        monkeypatch.delattr(os, "fork", raising=False)
        alone = sweep(*cells, min_devices=5)
        assert len(forked.rows) == 3 * 2 * 2
        assert repr(forked.rows) == repr(alone.rows)  # NaN where no cell is eligible
        fitted = fit_hyperparameters(proxy, dims)
        for result in (forked, alone):
            assert np.array_equal(result.fitted.scales.entries, fitted.scales.entries)
            assert (result.fitted.ams_clip, result.fitted.joint_clip) == (
                fitted.ams_clip, fitted.joint_clip)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_the_child_fits_and_sums_this_process_releases_every_cell(self, monkeypatch):
        # what the child calls is not recorded here: it fits the scales and
        # sums every mechanism but joint_clipping
        data, proxy = desk_pair(num_users=150)
        calls = []
        for name in ("fit_scales", "prepare_release", "finish_release",
                     "weighted_relative_error"):
            def spy(*args, name=name, original=getattr(evaluation, name)):
                calls.append(args[0].mechanism_kind if name == "prepare_release" else name)
                return original(*args)
            monkeypatch.setattr(evaluation, name, spy)
        sweep(data, proxy, [1.0, 2.0], DEFAULT_MECHANISMS, 2, 5,
              Dimensions(num_activities=9, num_regions=8), min_devices=5)
        assert calls[0] == "joint_clipping"
        assert calls[1:] == ["finish_release", "weighted_relative_error"] * (3 * 2 * 2)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    @pytest.mark.parametrize("fails", ["fit_scales", "prepare_release"])
    def test_a_failing_child_leaves_the_sweep_to_this_process(self, monkeypatch, fails):
        data, proxy = desk_pair(num_users=150)
        cells = (data, proxy, [1.0, 2.0], DEFAULT_MECHANISMS, 2, 5,
                 Dimensions(num_activities=9, num_regions=8))
        expected = sweep(*cells, min_devices=5)
        parent, original = os.getpid(), getattr(evaluation, fails)

        def fail_in_child(*args):
            if os.getpid() != parent:
                raise MemoryError
            return original(*args)
        monkeypatch.setattr(evaluation, fails, fail_in_child)
        assert repr(sweep(*cells, min_devices=5).rows) == repr(expected.rows)

    def test_more_budget_never_hurts_much(self):
        data, proxy = desk_pair(num_users=600)
        dims = Dimensions(num_activities=9, num_regions=8)
        result = sweep(data, proxy, [0.5, 8.0], ["activity_metric_scaling"], 10, 3,
                       dims, min_devices=5)
        low, _ = result.mean_std("activity_metric_scaling", 0.5)
        high, _ = result.mean_std("activity_metric_scaling", 8.0)
        assert high < low

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
        write_sweep_csv(sweep_path, result)
        write_sweep_agg_csv(agg_path, result)

        lines = sweep_path.read_text().splitlines()
        assert lines[0] == "mechanism,epsilon,repeat,metric,wre"
        assert len(lines) == 1 + 2 * 2 * 2 * 3  # mechs * eps * repeats * metrics

        agg_lines = agg_path.read_text().splitlines()
        assert agg_lines[0] == "mechanism,epsilon,wre_mean,wre_std"
        assert len(agg_lines) == 1 + 2 * 2

    def test_render_metric_table(self):
        data, proxy = desk_pair(num_users=150)
        dims = Dimensions(num_activities=9, num_regions=8)
        result = sweep(data, proxy, [2.0], ["joint_clipping"], 2, 5, dims, min_devices=5)
        table = render_metric_table(result)
        assert "joint_clipping" in table
        assert "num_trips" in table
        assert str(TARGET_WRE) in table
        for values in REFERENCE_WRE_EPS2.values():
            assert f"{values[0]:.3f}" in table


@pytest.mark.parametrize("epsilons, nearest", [
    ((2.0,), 2.0), ((1.0, 4.0), 1.0), ((4.0, 0.5), 0.5), ((3.0, 1.0), 3.0),
    ((0.25, 2.5, 1.5), 2.5)])
def test_operating_epsilon_is_the_swept_one_nearest_2(epsilons, nearest):
    # ties go to the first listed
    result = SweepResult((), ("joint_clipping",), epsilons, 1, 0, None)
    assert result.operating_epsilon == nearest


def test_fit_hyperparameters_uses_slice_quantiles():
    _, proxy = desk_pair(num_users=200)
    dims = Dimensions(num_activities=9, num_regions=8)
    fitted = fit_hyperparameters(proxy, dims)
    assert fitted.ams_clip > 0 and fitted.joint_clip > 0
    cfg = fitted.config_for("activity_metric_scaling", 2.0, 0.0, 9)
    assert cfg.clip == fitted.ams_clip
    cfg = fitted.config_for("budget_split", 2.0, 0.0, 9)
    assert np.array_equal(cfg.clip, fitted.scales.entries)
    assert np.all(cfg.scales.entries == 1.0)
