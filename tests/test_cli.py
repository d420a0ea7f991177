import tracemalloc

import numpy as np
import pytest

from dpgb.cli import EXIT_BUDGET, EXIT_CONFIG, EXIT_IO, EXIT_OK, main
from dpgb.datagen import generate, ground_truth, read_generator_spec
from dpgb.dp_core import dense_laplace_noise
from dpgb.evaluation import ScoringPlan, run_seed
from dpgb.mechanisms import fit_clip, fit_scales
from dpgb.schema import (
    Dimensions,
    MechanismConfig,
    ScaleMatrix,
    read_histogram_csv,
    read_records_csv,
    write_mechanism_config,
)


GEN_CFG = "num_users = 120\nnum_regions = 6\nseed = 4\ntrips_per_user = 6.0\n"


def dense_truth(truth):
    """The exact totals as a dense vector in cell_index order."""
    dense = np.zeros(truth.dims.total_cells)
    dense[truth.flat] = truth.totals
    return dense


@pytest.fixture
def workspace(tmp_path):
    spec_path = tmp_path / "gen.cfg"
    spec_path.write_text(GEN_CFG)
    data_path = tmp_path / "data.csv"
    assert main(["generate", "--spec", str(spec_path), "--out", str(data_path)]) == EXIT_OK
    proxy_path = tmp_path / "proxy.csv"
    assert main(["generate", "--spec", str(spec_path), "--out", str(proxy_path),
                 "--seed", "5"]) == EXIT_OK
    return tmp_path, spec_path, data_path, proxy_path


def make_config(tmp_path, data_path, epsilon=2.0, seed=7, kind="activity_metric_scaling"):
    data = read_records_csv(data_path)
    dims = Dimensions(num_activities=9, num_regions=6)
    scales = fit_scales(data, dims)
    if kind == "activity_metric_scaling":
        clip = fit_clip(data, scales, dims)
        cfg = MechanismConfig(epsilon, kind, clip, scales, 0.0, seed)
    elif kind == "joint_clipping":
        ones = ScaleMatrix.ones(9)
        cfg = MechanismConfig(epsilon, kind, fit_clip(data, ones, dims), ones, 0.0, seed)
    else:
        cfg = MechanismConfig(epsilon, kind, scales.entries, ScaleMatrix.ones(9), 0.0, seed)
    path = tmp_path / f"{kind}.cfg"
    write_mechanism_config(path, cfg)
    return path


class TestGenerate:
    def test_writes_header_and_rows(self, workspace):
        _, spec_path, data_path, _ = workspace
        lines = data_path.read_text().splitlines()
        assert lines[0] == "user_id,region,activity,direction,distance_km,duration_s"
        spec = read_generator_spec(spec_path)
        assert len(lines) == 1 + generate(spec).num_records

    def test_byte_identical_reruns(self, workspace, tmp_path):
        _, spec_path, data_path, _ = workspace
        again = tmp_path / "again.csv"
        assert main(["generate", "--spec", str(spec_path), "--out", str(again)]) == EXIT_OK
        assert again.read_bytes() == data_path.read_bytes()

    def test_manifest_written(self, workspace):
        _, _, data_path, _ = workspace
        manifest = (data_path.parent / (data_path.name + ".manifest")).read_text()
        assert "command = generate" in manifest
        assert "input_spec_sha256 = " in manifest
        assert "seed = 4" in manifest

    def test_missing_spec_is_io_error(self, tmp_path):
        assert main(["generate", "--spec", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path / "d.csv")]) == EXIT_IO

    def test_desk_scale_generation_under_ten_seconds(self, tmp_path):
        import time
        spec_path = tmp_path / "gen.cfg"
        spec_path.write_text("num_users = 10000\nnum_regions = 100\nseed = 12\n")
        start = time.perf_counter()
        assert main(["generate", "--spec", str(spec_path),
                     "--out", str(tmp_path / "big.csv")]) == EXIT_OK
        assert time.perf_counter() - start < 10.0


class TestRelease:
    def test_release_and_ledger(self, workspace):
        tmp_path, _, data_path, _ = workspace
        cfg_path = make_config(tmp_path, data_path)
        out = tmp_path / "released.csv"
        assert main(["release", "--data", str(data_path), "--config", str(cfg_path),
                     "--out", str(out)]) == EXIT_OK
        dims = Dimensions(num_activities=9, num_regions=6)
        hist = read_histogram_csv(out, dims)
        assert np.count_nonzero(hist) > 0
        ledger = (tmp_path / "released.csv.ledger").read_text()
        assert "total,2.0" in ledger
        manifest = (tmp_path / "released.csv.manifest").read_text()
        assert "ledger_total = 2.0" in manifest
        assert "run = activity_metric_scaling,2.0," in manifest

    def test_same_seed_reproduces_bytes(self, workspace):
        tmp_path, _, data_path, _ = workspace
        cfg_path = make_config(tmp_path, data_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["release", "--data", str(data_path), "--config", str(cfg_path),
                     "--out", str(a)]) == EXIT_OK
        assert main(["release", "--data", str(data_path), "--config", str(cfg_path),
                     "--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_seed_override_changes_output(self, workspace):
        tmp_path, _, data_path, _ = workspace
        cfg_path = make_config(tmp_path, data_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["release", "--data", str(data_path), "--config", str(cfg_path), "--out", str(a)])
        main(["release", "--data", str(data_path), "--config", str(cfg_path), "--out", str(b),
              "--seed", "123"])
        assert a.read_bytes() != b.read_bytes()

    def test_unknown_mechanism_kind_exits_config(self, workspace):
        tmp_path, _, data_path, _ = workspace
        bad = tmp_path / "bad.cfg"
        bad.write_text("mechanism_kind = secret\nepsilon = 1\nclip = 1\n"
                       "scales = 1,1,1\nthreshold_tau = 0\nrng_seed = 1\n")
        assert main(["release", "--data", str(data_path), "--config", str(bad),
                     "--out", str(tmp_path / "o.csv")]) == EXIT_CONFIG

    def test_no_test_mode_flag_on_release(self, workspace):
        tmp_path, _, data_path, _ = workspace
        cfg_path = make_config(tmp_path, data_path)
        assert main(["release", "--data", str(data_path), "--config", str(cfg_path),
                     "--out", str(tmp_path / "o.csv"), "--test-mode"]) == EXIT_CONFIG

    def test_budget_abort_maps_to_exit_3(self, workspace, monkeypatch):
        tmp_path, _, data_path, _ = workspace
        cfg_path = make_config(tmp_path, data_path)
        from dpgb.dp_core import BudgetExceededError, PrivacyLedger
        import dpgb.cli as cli_mod

        def explode(*args, **kwargs):
            raise BudgetExceededError("boom", PrivacyLedger(budget=1.0))
        monkeypatch.setattr(cli_mod, "run_release", explode)
        assert main(["release", "--data", str(data_path), "--config", str(cfg_path),
                     "--out", str(tmp_path / "o.csv")]) == EXIT_BUDGET


    @pytest.mark.parametrize("kind", ["activity_metric_scaling", "joint_clipping",
                                      "budget_split"])
    def test_out_of_domain_records_exit_config(self, workspace, kind, capsys):
        tmp_path, _, data_path, _ = workspace
        cfg_path = make_config(tmp_path, data_path, kind=kind)
        out = tmp_path / "o.csv"
        capsys.readouterr()
        assert main(["release", "--data", str(data_path), "--config", str(cfg_path),
                     "--out", str(out), "--num-regions", "3"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "out of bounds" in err
        assert "skipped" not in err
        assert not out.exists()


class TestEval:
    def test_recomputed_truth_scores_zero(self, workspace):
        tmp_path, _, data_path, _ = workspace
        from dpgb.datagen import ground_truth
        from dpgb.schema import write_histogram_csv
        data = read_records_csv(data_path)
        dims = Dimensions(num_activities=9, num_regions=6)
        released_path = tmp_path / "truth.csv"
        write_histogram_csv(released_path, dense_truth(ground_truth(data, dims)), dims)
        out_dir = tmp_path / "eval"
        assert main(["eval", "--data", str(data_path), "--released", str(released_path),
                     "--out", str(out_dir), "--min-devices", "1",
                     "--num-activities", "9"]) == EXIT_OK
        report = (out_dir / "report.txt").read_text()
        assert "wre = 0.0" in report
        assert (out_dir / "cells.csv").exists()

    def test_huge_floor_flags_no_eligible_cells(self, workspace):
        tmp_path, _, data_path, _ = workspace
        from dpgb.datagen import ground_truth
        from dpgb.schema import write_histogram_csv
        data = read_records_csv(data_path)
        dims = Dimensions(num_activities=9, num_regions=6)
        released_path = tmp_path / "truth.csv"
        write_histogram_csv(released_path, dense_truth(ground_truth(data, dims)), dims)
        out_dir = tmp_path / "eval"
        assert main(["eval", "--data", str(data_path), "--released", str(released_path),
                     "--out", str(out_dir), "--min-devices", "100000"]) == EXIT_OK
        assert "no eligible cells" in (out_dir / "report.txt").read_text()

    def test_duration_unit_scales_diagnostics(self, workspace):
        tmp_path, _, data_path, _ = workspace
        from dpgb.datagen import ground_truth
        from dpgb.schema import write_histogram_csv
        data = read_records_csv(data_path)
        dims = Dimensions(num_activities=9, num_regions=6)
        released_path = tmp_path / "truth.csv"
        write_histogram_csv(released_path, dense_truth(ground_truth(data, dims)), dims)
        out_s = tmp_path / "eval_s"
        out_m = tmp_path / "eval_m"
        main(["eval", "--data", str(data_path), "--released", str(released_path),
              "--out", str(out_s), "--min-devices", "1"])
        main(["eval", "--data", str(data_path), "--released", str(released_path),
              "--out", str(out_m), "--min-devices", "1", "--duration-unit", "minutes"])
        import csv
        def duration_trues(path):
            with open(path / "cells.csv", newline="") as fh:
                return [float(row["true"]) for row in csv.DictReader(fh)
                        if row["metric"] == "duration"]
        seconds, minutes = duration_trues(out_s), duration_trues(out_m)
        assert seconds and np.allclose(np.asarray(seconds) / 60.0, minutes)


class TestSweep:
    def test_sweep_outputs_and_consistency_with_release(self, workspace):
        tmp_path, _, data_path, proxy_path = workspace
        out_dir = tmp_path / "sweep"
        assert main(["sweep", "--data", str(data_path), "--proxy", str(proxy_path),
                     "--out", str(out_dir), "--epsilons", "2.0", "--repeats", "1",
                     "--seed", "7", "--min-devices", "5", "--threads", "1",
                     "--mechanisms", "joint_clipping"]) == EXIT_OK
        assert (out_dir / "sweep.csv").exists()
        assert (out_dir / "sweep_agg.csv").exists()
        assert (out_dir / "curve.dat").exists()
        assert (out_dir / "metric_table.txt").exists()
        fitted_cfg = out_dir / "fitted_joint_clipping.cfg"
        assert fitted_cfg.exists()

        # the single sweep cell must equal release + eval composed by hand
        from dpgb.datagen import ground_truth
        from dpgb.evaluation import ScoringPlan, weighted_relative_error
        from dpgb.mechanisms import run_release
        from dpgb.schema import read_mechanism_config
        import csv
        cfg = read_mechanism_config(fitted_cfg)
        data = read_records_csv(data_path)
        dims = Dimensions(num_activities=9, num_regions=6)
        seed = run_seed(7, "joint_clipping", 2.0, 0)
        from dataclasses import replace
        result = run_release(replace(cfg, rng_seed=seed), data, dims)
        report = weighted_relative_error(ScoringPlan.build(ground_truth(data, dims), 5),
                                         result.released)
        with open(out_dir / "sweep.csv", newline="") as fh:
            rows = {row["metric"]: float(row["wre"]) for row in csv.DictReader(fh)}
        for name, value in rows.items():
            assert value == pytest.approx(report.wre[name], rel=1e-12)

    def test_sweep_requires_proxy_or_unsafe_fit(self, workspace):
        tmp_path, _, data_path, _ = workspace
        assert main(["sweep", "--data", str(data_path),
                     "--out", str(tmp_path / "s")]) == EXIT_CONFIG
        assert main(["sweep", "--data", str(data_path), "--proxy", str(data_path),
                     "--out", str(tmp_path / "s"), "--unsafe-fit"]) == EXIT_CONFIG

    def test_unsafe_fit_runs(self, workspace):
        tmp_path, _, data_path, _ = workspace
        out_dir = tmp_path / "s"
        assert main(["sweep", "--data", str(data_path), "--out", str(out_dir),
                     "--unsafe-fit", "--epsilons", "2.0", "--repeats", "1",
                     "--mechanisms", "joint_clipping", "--min-devices", "5",
                     "--threads", "1"]) == EXIT_OK

    def test_sweep_config_file(self, workspace):
        tmp_path, _, data_path, proxy_path = workspace
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("epsilons = 1.0,2.0\nrepeats = 1\nseed = 3\nmin_devices = 5\n"
                       "mechanisms = joint_clipping\n")
        out_dir = tmp_path / "s"
        assert main(["sweep", "--data", str(data_path), "--proxy", str(proxy_path),
                     "--out", str(out_dir), "--config", str(cfg),
                     "--threads", "1"]) == EXIT_OK
        text = (out_dir / "sweep_agg.csv").read_text()
        assert "joint_clipping,1.0," in text and "joint_clipping,2.0," in text

    def test_test_mode_sweep_allowed(self, workspace):
        tmp_path, _, data_path, proxy_path = workspace
        out_dir = tmp_path / "s"
        assert main(["sweep", "--data", str(data_path), "--proxy", str(proxy_path),
                     "--out", str(out_dir), "--test-mode", "--epsilons", "2.0",
                     "--repeats", "1", "--mechanisms", "joint_clipping",
                     "--min-devices", "5", "--threads", "1"]) == EXIT_OK


class TestReport:
    def test_report_rerenders_sweep(self, workspace):
        tmp_path, _, data_path, proxy_path = workspace
        sweep_dir = tmp_path / "sweep"
        main(["sweep", "--data", str(data_path), "--proxy", str(proxy_path),
              "--out", str(sweep_dir), "--epsilons", "1.0,2.0", "--repeats", "2",
              "--mechanisms", "joint_clipping,activity_metric_scaling",
              "--min-devices", "5", "--threads", "1"])
        report_dir = tmp_path / "report"
        assert main(["report", "--sweep", str(sweep_dir / "sweep.csv"),
                     "--out", str(report_dir)]) == EXIT_OK
        assert "joint_clipping" in (report_dir / "metric_table.txt").read_text()
        assert "0.03" in (report_dir / "curve.dat").read_text()

    def test_missing_sweep_is_io_error(self, tmp_path):
        assert main(["report", "--sweep", str(tmp_path / "none.csv"),
                     "--out", str(tmp_path / "r")]) == EXIT_IO


def test_usage_error_exits_config(capsys):
    assert main(["frobnicate"]) == EXIT_CONFIG
    assert main([]) == EXIT_CONFIG


def test_dpgb_threads_env(workspace, monkeypatch):
    tmp_path, _, data_path, proxy_path = workspace
    monkeypatch.setenv("DPGB_THREADS", "2")
    out_dir = tmp_path / "s"
    assert main(["sweep", "--data", str(data_path), "--proxy", str(proxy_path),
                 "--out", str(out_dir), "--epsilons", "2.0", "--repeats", "2",
                 "--mechanisms", "joint_clipping", "--min-devices", "5"]) == EXIT_OK
    assert "threads = 2" in (out_dir / "manifest").read_text()


def test_release_eval_sweep_build_no_sparse_release(workspace):
    """The commands hold the data as columns and the truth as the cells some
    user reached: at the production domain (4.05M cells, 32 MB per dense
    vector), the ground truth and scoring plan of 120 users peak far below
    one domain-sized vector."""
    tmp_path, _, data_path, proxy_path = workspace
    data = read_records_csv(data_path)
    dims = Dimensions(num_activities=9, num_regions=50_000)
    tracemalloc.start()
    try:
        plan = ScoringPlan.build(ground_truth(data, dims), 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(flat.size for flat in plan.flat) > 0
    assert peak < dims.total_cells * 8 / 16

    sweep_dir = tmp_path / "s"
    assert main(["sweep", "--data", str(data_path), "--proxy", str(proxy_path),
                 "--out", str(sweep_dir), "--epsilons", "2.0", "--repeats", "2",
                 "--min-devices", "5", "--threads", "1"]) == EXIT_OK
    released = tmp_path / "released.csv"
    assert main(["release", "--data", str(data_path), "--config",
                 str(sweep_dir / "fitted_budget_split.cfg"), "--out", str(released)]) == EXIT_OK
    assert main(["eval", "--data", str(data_path), "--released", str(released),
                 "--out", str(tmp_path / "eval"), "--min-devices", "5"]) == EXIT_OK


@pytest.mark.parametrize("flags, named", [
    (["--mechanisms", "joint_clipping,joint_clipping"], "'joint_clipping' is listed twice"),
    (["--mechanisms", ","], "mechanism list is empty"),
    (["--mechanisms", "joint_clipping,median"], "'median'"),
    (["--epsilons", ","], "epsilon list is empty"),
    (["--epsilons", "1.0,2.0,1"], "epsilon 1.0 is listed twice"),
    (["--epsilons", "2.0,0"], "got 0.0"),
    (["--epsilons", "-1"], "got -1.0"),
    (["--epsilons", "nan"], "got nan"),
    (["--epsilons", "inf"], "got inf"),
    (["--tau", "-0.5"], "got -0.5"),
    (["--tau", "nan"], "got nan"),
])
def test_sweep_rejects_bad_settings_before_fitting(workspace, monkeypatch, capsys, flags, named):
    tmp_path, _, data_path, proxy_path = workspace

    def refuse(*args, **kwargs):
        raise AssertionError("fitted before the settings were checked")
    monkeypatch.setattr("dpgb.evaluation.fit_hyperparameters", refuse)
    out_dir = tmp_path / "s"
    assert main(["sweep", "--data", str(data_path), "--proxy", str(proxy_path),
                 "--out", str(out_dir), "--repeats", "1", "--threads", "1"] + flags) == EXIT_CONFIG
    assert named in capsys.readouterr().err
    assert not (out_dir / "sweep.csv").exists()


def test_header_only_records(workspace, capsys):
    """A records file with no rows releases pure noise, scores nothing, and
    cannot be fitted on."""
    tmp_path, _, data_path, _ = workspace
    empty = tmp_path / "empty.csv"
    empty.write_text("user_id,region,activity,direction,distance_km,duration_s\n")
    dims = Dimensions(num_activities=2, num_regions=3)
    cfg_path = tmp_path / "joint.cfg"
    write_mechanism_config(cfg_path, MechanismConfig(
        2.0, "joint_clipping", 1.0, ScaleMatrix.ones(2), 0.0, 5))
    released = tmp_path / "released.csv"
    assert main(["release", "--data", str(empty), "--config", str(cfg_path),
                 "--out", str(released), "--num-regions", "3"]) == EXIT_OK
    noise = dense_laplace_noise(1.0 / 2.0, 5, dims.total_cells)
    assert np.array_equal(read_histogram_csv(released, dims), np.maximum(noise, 0.0))

    out_dir = tmp_path / "eval"
    assert main(["eval", "--data", str(empty), "--released", str(released),
                 "--out", str(out_dir), "--num-activities", "2",
                 "--num-regions", "3"]) == EXIT_OK
    assert "no eligible cells" in (out_dir / "report.txt").read_text()

    capsys.readouterr()
    assert main(["sweep", "--data", str(data_path), "--proxy", str(empty),
                 "--out", str(tmp_path / "s"), "--epsilons", "2.0", "--repeats", "1",
                 "--threads", "1"]) == EXIT_CONFIG
    assert "fit_clip needs a non-empty dataset" in capsys.readouterr().err
    assert not (tmp_path / "s" / "sweep.csv").exists()
