import csv
import hashlib
import os
import re
import shlex
import stat
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from dpgb import cli, datagen, evaluation, schema
from dpgb.cli import EXIT_BUDGET, EXIT_CONFIG, EXIT_IO, EXIT_OK, _sha256, main
from dpgb.datagen import generate, ground_truth, read_generator_spec
from dpgb.dp_core import dense_laplace_noise
from dpgb.evaluation import ScoringPlan, run_seed
from dpgb.mechanisms import finish_release, fit_clip, fit_scales, prepare_release
from dpgb.schema import (
    METRIC_NAMES,
    ConfigError,
    Dimensions,
    MechanismConfig,
    ScaleMatrix,
    read_histogram_csv,
    read_mechanism_config,
    read_records_csv,
    write_mechanism_config,
)


README = Path(__file__).resolve().parent.parent / "README.md"
GEN_CFG = "num_users = 120\nnum_regions = 6\nseed = 4\ntrips_per_user = 6.0\n"
# the domain of GEN_CFG's records, which sweep and eval take from flags only
DOMAIN = ["--num-activities", "9", "--num-regions", "6"]


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

    @pytest.mark.usefixtures("second_half")
    def test_manifest_counts_every_record_of_both_halves(self, tmp_path):
        # the child's records come back through shared memory
        spec_path = tmp_path / "gen.cfg"
        spec_path.write_text(GEN_CFG)
        data_path = tmp_path / "data.csv"
        assert main(["generate", "--spec", str(spec_path), "--out", str(data_path)]) == EXIT_OK
        data = generate(read_generator_spec(spec_path))
        manifest = (tmp_path / "data.csv.manifest").read_text().splitlines()
        assert f"num_users = {data.num_users}" in manifest
        assert f"num_records = {data.num_records}" in manifest
        assert len(data_path.read_bytes().splitlines()) == 1 + data.num_records

    def test_manifest_hash_spans_chunks(self, tmp_path):
        # inputs are hashed in 1 MiB reads; a file of several reads and a
        # partial last one must hash as the whole file does
        path = tmp_path / "blob.bin"
        payload = np.random.default_rng(3).bytes(2 * (1 << 20) + 12345)
        path.write_bytes(payload)
        assert _sha256(path) == hashlib.sha256(payload).hexdigest()
        empty = tmp_path / "empty.bin"
        empty.write_bytes(b"")
        assert _sha256(empty) == hashlib.sha256(b"").hexdigest()

    def test_week_id_is_an_unknown_key(self, tmp_path, capsys):
        # the week label enters no file the command writes
        spec_path = tmp_path / "gen.cfg"
        spec_path.write_text(GEN_CFG + "week_id = w9\n")
        out = tmp_path / "d.csv"
        assert main(["generate", "--spec", str(spec_path), "--out", str(out)]) == EXIT_CONFIG
        assert "unknown keys ['week_id']" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["gen.cfg"]

    def test_missing_spec_is_io_error(self, tmp_path):
        assert main(["generate", "--spec", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path / "d.csv")]) == EXIT_IO

    @pytest.mark.parametrize("line", [
        "trips_per_user = nan", "trips_per_user = inf", "region_zipf_s = nan",
        "outlier_multiplier = inf", "profiles = nan_weight.csv"])
    def test_non_finite_spec_is_config_error(self, tmp_path, capsys, line):
        (tmp_path / "nan_weight.csv").write_text(
            "activity,name,weight,distance_log_mean,distance_log_sigma,"
            "duration_log_mean,duration_log_sigma\n"
            "0,slow,nan,0.0,0.1,5.0,0.1\n"
            "1,fast,1.0,5.0,0.1,8.0,0.1\n")
        spec_path = tmp_path / "gen.cfg"
        spec_path.write_text(f"num_users = 5\nnum_regions = 3\nseed = 1\n{line}\n")
        out = tmp_path / "d.csv"
        assert main(["generate", "--spec", str(spec_path), "--out", str(out)]) == EXIT_CONFIG
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("table, where, what", [
        ("0,walk,heavy,0.0,0.1,5.0,0.1\n", ":2: ", "could not convert string to float: 'heavy'"),
        ("0,walk,1.0,0.0,0.1,5.0,0.1\nx,run,0.0,0.0,0.1,5.0,0.1\n", ":3: ",
         "invalid literal for int()"),
        ("0,walk,1.0,0.0,0.1\n", ":2: ", "expected 7 fields"),
        ("0,walk,1.0,0.0,-0.1,5.0,0.1\n", ":2: ", "sigmas must be >= 0"),
        (None, ": ", "bad profile table header")])
    def test_a_bad_profile_table_names_its_file_and_line(self, tmp_path, capsys, table, where,
                                                           what):
        header = ",".join(datagen.PROFILE_CSV_HEADER) + "\n"
        text = header + table if table else "activity,name,weight\n0,walk,1.0\n"
        (tmp_path / "profiles.csv").write_text(text)
        spec_path = tmp_path / "gen.cfg"
        spec_path.write_text("num_users = 5\nnum_regions = 3\nseed = 1\n"
                             "profiles = profiles.csv\n")
        out = tmp_path / "d.csv"
        assert main(["generate", "--spec", str(spec_path), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"error: {tmp_path / 'profiles.csv'}{where}" in err and what in err
        assert not out.exists()

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
                     "--out", str(out), "--num-regions", "6"]) == EXIT_OK
        dims = Dimensions(num_activities=9, num_regions=6)
        hist = read_histogram_csv(out, dims)
        assert np.count_nonzero(hist) > 0
        # one label,epsilon line per charge plus the total, after the adjacency
        assert (tmp_path / "released.csv.ledger").read_bytes() == (
            b"# adjacency: (user, week) add/remove\nlaplace_noise,2.0\ntotal,2.0\n")
        manifest = (tmp_path / "released.csv.manifest").read_text()
        assert "ledger_total = 2.0" in manifest
        assert "run = activity_metric_scaling,2.0," in manifest

    def test_same_seed_reproduces_bytes(self, workspace):
        tmp_path, _, data_path, _ = workspace
        cfg_path = make_config(tmp_path, data_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["release", "--data", str(data_path), "--config", str(cfg_path),
                     "--out", str(a), "--num-regions", "6"]) == EXIT_OK
        assert main(["release", "--data", str(data_path), "--config", str(cfg_path),
                     "--out", str(b), "--num-regions", "6"]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    # sha256 of released.csv and its ledger; a change that moves an output
    # byte must be argued for, never slipped in with a speed-up
    @pytest.mark.parametrize("kind, released_sha, ledger_sha", [
        ("activity_metric_scaling",
         "839309b951ee9f00d86d6b4b4a13968a162809f40f0617ea3f70f085ab65e4f4",
         "9ec25f2f6055c7c9be2854368b312ac7e79c66ef3146b86f14b9d9fb64b85a25"),
        ("joint_clipping",
         "0dc6f51e6fb8e0fe5ec106f159f11da24bb2afe71627254bf38aa952ae1e47e6",
         "9ec25f2f6055c7c9be2854368b312ac7e79c66ef3146b86f14b9d9fb64b85a25"),
        ("budget_split",
         "1564daeed0fa88673a238f33faaa5f0a4bcd7bf6a9e687c0a164a1a7c0aaabdc",
         "9c6507a48ca14b35eee0628abc4935cd03a42e9ae52520561fed316fbe70ac29"),
    ])
    def test_release_bytes_are_pinned(self, workspace, kind, released_sha, ledger_sha):
        tmp_path, _, data_path, _ = workspace
        cfg_path = make_config(tmp_path, data_path, kind=kind)
        out = tmp_path / "released.csv"
        assert main(["release", "--data", str(data_path), "--config", str(cfg_path),
                     "--out", str(out), "--num-regions", "6"]) == EXIT_OK
        ledger = tmp_path / "released.csv.ledger"
        assert (_sha256(out), _sha256(ledger)) == (released_sha, ledger_sha)

    def test_seed_override_changes_output(self, workspace):
        tmp_path, _, data_path, _ = workspace
        cfg_path = make_config(tmp_path, data_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["release", "--data", str(data_path), "--config", str(cfg_path), "--out", str(a),
              "--num-regions", "6"])
        main(["release", "--data", str(data_path), "--config", str(cfg_path), "--out", str(b),
              "--seed", "123", "--num-regions", "6"])
        assert a.read_bytes() != b.read_bytes()

    def test_unknown_mechanism_kind_exits_config(self, workspace):
        tmp_path, _, data_path, _ = workspace
        bad = tmp_path / "bad.cfg"
        bad.write_text("mechanism_kind = secret\nepsilon = 1\nclip = 1\n"
                       "scales = 1,1,1\nthreshold_tau = 0\nrng_seed = 1\n")
        assert main(["release", "--data", str(data_path), "--config", str(bad),
                     "--out", str(tmp_path / "o.csv"), "--num-regions", "6"]) == EXIT_CONFIG

    def test_no_test_mode_flag_on_release(self, workspace):
        tmp_path, _, data_path, _ = workspace
        cfg_path = make_config(tmp_path, data_path)
        assert main(["release", "--data", str(data_path), "--config", str(cfg_path),
                     "--out", str(tmp_path / "o.csv"), "--num-regions", "6",
                     "--test-mode"]) == EXIT_CONFIG

    def test_negative_seed_is_rejected_before_the_records_are_read(
            self, workspace, monkeypatch, capsys):
        # a config holding rng_seed = -3, or a --seed -1 override: exit 1,
        # naming the key, and nothing written
        tmp_path, _, data_path, _ = workspace
        cfg_path = make_config(tmp_path, data_path)
        negative = tmp_path / "negative.cfg"
        negative.write_text(cfg_path.read_text().replace("rng_seed = 7", "rng_seed = -3"))

        def refuse(*args, **kwargs):
            raise AssertionError("read the records before the seed was checked")
        monkeypatch.setattr(cli, "read_records_csv", refuse)
        out = tmp_path / "o.csv"
        for config, flags, seed in ((negative, [], -3), (cfg_path, ["--seed", "-1"], -1)):
            assert main(["release", "--data", str(data_path), "--config", str(config),
                         "--out", str(out), "--num-regions", "6"] + flags) == EXIT_CONFIG
            assert f"rng_seed must be >= 0, got {seed}" in capsys.readouterr().err
            assert not list(tmp_path.glob("o.csv*"))

    @pytest.mark.parametrize("kind, extra, other", [
        ("joint_clipping", "clip_grid = 1,1,1\n", "clip_grid"),
        ("activity_metric_scaling", "clip_grid = 1,1,1\n", "clip_grid"),
        ("budget_split", "clip = 1.0\n", "clip")])
    def test_the_other_mechanisms_clip_key_is_unknown(
            self, workspace, monkeypatch, capsys, kind, extra, other):
        # a config never carries a clip it does not read
        tmp_path, _, data_path, _ = workspace
        config = make_config(tmp_path, data_path, kind=kind)
        config.write_text(config.read_text() + extra)

        def refuse(*args, **kwargs):
            raise AssertionError("read the records before the config was checked")
        monkeypatch.setattr(cli, "read_records_csv", refuse)
        assert main(["release", "--data", str(data_path), "--config", str(config),
                     "--out", str(tmp_path / "o.csv"), "--num-regions", "6"]) == EXIT_CONFIG
        assert f"unknown keys ['{other}']" in capsys.readouterr().err
        assert not list(tmp_path.glob("o.csv*"))

    def test_budget_abort_maps_to_exit_3(self, workspace, monkeypatch):
        tmp_path, _, data_path, _ = workspace
        cfg_path = make_config(tmp_path, data_path)
        from dpgb.dp_core import BudgetExceededError, PrivacyLedger
        import dpgb.cli as cli_mod

        def explode(*args, **kwargs):
            raise BudgetExceededError("boom", PrivacyLedger(budget=1.0))
        monkeypatch.setattr(cli_mod, "finish_release", explode)
        assert main(["release", "--data", str(data_path), "--config", str(cfg_path),
                     "--out", str(tmp_path / "o.csv"), "--num-regions", "6"]) == EXIT_BUDGET


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

    def test_a_quoted_user_id_fails_every_command_at_its_line(self, workspace, capsys):
        # invalid input fails the same way under every mechanism and command,
        # and no command leaves an output file
        tmp_path, _, data_path, proxy_path = workspace
        configs = [make_config(tmp_path, data_path, kind=kind) for kind in schema.MECHANISM_KINDS]
        lines = data_path.read_bytes().split(b"\r\n")
        # the third record's id, quoted as csv.writer quotes an id with a comma
        lines[3] = b'"a,b"' + lines[3][lines[3].index(b","):]
        bad = tmp_path / "quoted.csv"
        bad.write_bytes(b"\r\n".join(lines))
        runs = [["release", "--data", str(bad), "--config", str(cfg), "--out",
                 str(tmp_path / "o.csv"), "--num-regions", "6"] for cfg in configs]
        runs.append(["eval", "--data", str(bad), "--released", str(data_path),
                     "--out", str(tmp_path / "eval")] + DOMAIN)
        runs += [["sweep", "--data", str(data), "--proxy", str(proxy), "--out",
                  str(tmp_path / "sweep"), "--epsilons", "2.0", "--repeats", "1"] + DOMAIN
                 for data, proxy in ((bad, proxy_path), (data_path, bad))]
        files = sorted(os.listdir(tmp_path))
        for argv in runs:
            capsys.readouterr()
            assert main(argv) == EXIT_CONFIG, argv
            assert capsys.readouterr().err == f"error: {bad}:4: quote byte\n"
        assert sorted(os.listdir(tmp_path)) == files

    def test_release_needs_num_regions(self, workspace, capsys):
        # the release domain never comes from the private records
        tmp_path, _, data_path, _ = workspace
        cfg_path = make_config(tmp_path, data_path)
        out = tmp_path / "o.csv"
        assert main(["release", "--data", str(data_path), "--config", str(cfg_path),
                     "--out", str(out)]) == EXIT_CONFIG
        assert "--num-regions" in capsys.readouterr().err
        assert not out.exists()

    def test_one_user_cannot_grow_the_release_domain(self, tmp_path, capsys):
        """Neighbouring datasets: 300 users on 40 regions, and the same plus
        one user with a single record in region 75.  From one config, each
        release covers the same 40-region domain, or the run exits 1 and
        publishes nothing."""
        spec_path = tmp_path / "gen.cfg"
        spec_path.write_text("num_users = 300\nnum_regions = 40\nseed = 9\n")
        data_path = tmp_path / "data.csv"
        assert main(["generate", "--spec", str(spec_path), "--out", str(data_path)]) == EXIT_OK
        neighbour_path = tmp_path / "neighbour.csv"
        neighbour_path.write_bytes(data_path.read_bytes() + b"extra_user,75,0,0,1.5,300.0\n")
        cfg_path = tmp_path / "joint.cfg"
        write_mechanism_config(cfg_path, MechanismConfig(
            2.0, "joint_clipping", 50.0, ScaleMatrix.ones(9), 0.0, 5))
        dims = Dimensions(num_activities=9, num_regions=40)
        released = []
        for records in (data_path, neighbour_path):
            out = tmp_path / f"released_{records.stem}.csv"
            capsys.readouterr()
            code = main(["release", "--data", str(records), "--config", str(cfg_path),
                         "--out", str(out), "--num-regions", "40"])
            if code == EXIT_CONFIG:
                assert "out of bounds" in capsys.readouterr().err
                assert not out.exists()
                released.append(None)
            else:
                assert code == EXIT_OK
                # raises on a row outside the 40-region domain
                released.append(np.flatnonzero(read_histogram_csv(out, dims)))
        assert released[0] is not None and released[0].size > 0
        assert released[1] is None or np.array_equal(released[0], released[1])


    def test_one_user_cannot_grow_the_fitted_domain(self, tmp_path, capsys):
        """Neighbouring datasets: 300 users on 40 regions, and the same plus
        one user with a single record in activity 9, a tenth activity.  A
        sweep fitted on the same proxy, then a release from its config, cover
        the same 9 x 40-region domain, or the run exits 1 and publishes
        nothing.  Taken from the records, the domain would have grown the
        fitted config to ten activities and the release by their cells."""
        spec_path = tmp_path / "gen.cfg"
        spec_path.write_text("num_users = 300\nnum_regions = 40\nseed = 9\n")
        data_path, proxy_path = tmp_path / "data.csv", tmp_path / "proxy.csv"
        assert main(["generate", "--spec", str(spec_path), "--out", str(data_path)]) == EXIT_OK
        assert main(["generate", "--spec", str(spec_path), "--out", str(proxy_path),
                     "--seed", "6"]) == EXIT_OK
        neighbour_path = tmp_path / "neighbour.csv"
        neighbour_path.write_bytes(data_path.read_bytes() + b"extra_user,0,9,0,1.5,300.0\r\n")
        sweep_flags = ["--proxy", str(proxy_path), "--epsilons", "2.0", "--repeats", "1",
                       "--mechanisms", "activity_metric_scaling"]
        for missing in ("--num-activities", "--num-regions"):
            domain = ["--num-activities", "9", "--num-regions", "40"]
            del domain[domain.index(missing):domain.index(missing) + 2]
            capsys.readouterr()
            assert main(["sweep", "--data", str(neighbour_path), "--out", str(tmp_path / "s")]
                        + sweep_flags + domain) == EXIT_CONFIG
            assert missing in capsys.readouterr().err
            assert not (tmp_path / "s").exists()
        dims = Dimensions(num_activities=9, num_regions=40)
        released = []
        for records in (data_path, neighbour_path):
            sweep_dir = tmp_path / f"sweep_{records.stem}"
            out = tmp_path / f"released_{records.stem}.csv"
            capsys.readouterr()
            code = main(["sweep", "--data", str(records), "--out", str(sweep_dir)] + sweep_flags
                        + ["--num-activities", "9", "--num-regions", "40"])
            if code == EXIT_OK:
                code = main(["release", "--data", str(records), "--config",
                             str(sweep_dir / "fitted_activity_metric_scaling.cfg"),
                             "--out", str(out), "--num-regions", "40"])
            if code == EXIT_CONFIG:
                assert "out of bounds" in capsys.readouterr().err
                assert not out.exists()
                released.append(None)
            else:
                assert code == EXIT_OK
                # raises on a row outside the 9 x 40-region domain
                released.append(np.flatnonzero(read_histogram_csv(out, dims)))
        assert released[0] is not None and released[0].size > 0
        assert released[1] is None or np.array_equal(released[0], released[1])


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
                     "--out", str(out_dir), "--min-devices", "1"] + DOMAIN) == EXIT_OK
        report = (out_dir / "report.txt").read_text()
        assert "wre = 0.0" in report
        assert (out_dir / "cells.csv").exists()

    def test_negative_floor_is_rejected_before_the_records_are_read(
            self, workspace, monkeypatch, capsys):
        tmp_path, _, data_path, _ = workspace

        def refuse(*args, **kwargs):
            raise AssertionError("read the records before the floor was checked")
        monkeypatch.setattr(cli, "read_records_csv", refuse)
        out_dir = tmp_path / "eval"
        assert main(["eval", "--data", str(data_path), "--released", str(data_path),
                     "--out", str(out_dir), "--min-devices", "-7"] + DOMAIN) == EXIT_CONFIG
        assert "min_devices must be >= 0, got -7" in capsys.readouterr().err
        assert not out_dir.exists()

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
                     "--out", str(out_dir), "--min-devices", "100000"] + DOMAIN) == EXIT_OK
        assert "no eligible cells" in (out_dir / "report.txt").read_text()

    # sha256 of eval's cells.csv for an activity_metric_scaling release; the
    # rows are written from the scoring arrays, so this pins their float
    # text (duration in seconds, the storage unit), their order and the
    # \r\n line ends
    @pytest.mark.parametrize("unit, cells_sha", [
        ("seconds", "fb809b4b4ee2dde5d8cb3c04abb7bea32a994e534182b049d28b87b2bdecfc6d"),
    ])
    def test_cells_bytes_are_pinned(self, workspace, unit, cells_sha):
        tmp_path, _, data_path, _ = workspace
        cfg_path = make_config(tmp_path, data_path)
        released = tmp_path / "released.csv"
        assert main(["release", "--data", str(data_path), "--config", str(cfg_path),
                     "--out", str(released), "--num-regions", "6"]) == EXIT_OK
        out_dir = tmp_path / "eval"
        assert main(["eval", "--data", str(data_path), "--released", str(released),
                     "--out", str(out_dir), "--min-devices", "5"] + DOMAIN) == EXIT_OK
        assert "eligible = 48," in (out_dir / "report.txt").read_text()
        assert _sha256(out_dir / "cells.csv") == cells_sha

class TestSweep:
    def test_sweep_outputs_and_consistency_with_release(self, workspace):
        tmp_path, _, data_path, proxy_path = workspace
        out_dir = tmp_path / "sweep"
        assert main(["sweep", "--data", str(data_path), "--proxy", str(proxy_path),
                     "--out", str(out_dir), "--epsilons", "2.0", "--repeats", "1",
                     "--seed", "7", "--min-devices", "5",
                     "--mechanisms", "joint_clipping"] + DOMAIN) == EXIT_OK
        assert (out_dir / "sweep.csv").exists()
        assert (out_dir / "sweep_agg.csv").exists()
        assert (out_dir / "metric_table.txt").exists()
        fitted_cfg = out_dir / "fitted_joint_clipping.cfg"
        assert fitted_cfg.exists()

        # the single sweep cell must equal release + eval composed by hand
        from dpgb.datagen import ground_truth
        from dpgb.evaluation import ScoringPlan, weighted_relative_error
        import csv
        cfg = read_mechanism_config(fitted_cfg)
        data = read_records_csv(data_path)
        dims = Dimensions(num_activities=9, num_regions=6)
        seed = run_seed(7, "joint_clipping", 2.0, 0)
        result = finish_release(prepare_release(cfg, data, dims), cfg.epsilon,
                                cfg.threshold_tau, seed, in_place=True)
        report = weighted_relative_error(ScoringPlan.build(ground_truth(data, dims), 5),
                                         result.released)
        with open(out_dir / "sweep.csv", newline="") as fh:
            rows = {row["metric"]: float(row["wre"]) for row in csv.DictReader(fh)}
        for name, value in rows.items():
            assert value == pytest.approx(report.wre[name], rel=1e-12)

    def test_sweep_writes_exactly_its_listed_outputs(self, workspace):
        tmp_path, _, data_path, proxy_path = workspace
        out_dir = tmp_path / "s"
        mechanisms = ("budget_split", "activity_metric_scaling")
        assert main(["sweep", "--data", str(data_path), "--proxy", str(proxy_path),
                     "--out", str(out_dir), "--epsilons", "2.0", "--repeats", "1",
                     "--mechanisms", ",".join(mechanisms), "--min-devices", "5"]
                    + DOMAIN) == EXIT_OK
        outputs = ["sweep.csv", "sweep_agg.csv", "metric_table.txt"] + [
            f"fitted_{kind}.cfg" for kind in mechanisms]
        assert sorted(os.listdir(out_dir)) == sorted(outputs + ["manifest"])
        manifest = (out_dir / "manifest").read_text().splitlines()
        assert [line for line in manifest if line.startswith("output = ")] == [
            f"output = {out_dir / name}" for name in outputs]

    def test_sweep_requires_proxy(self, workspace, capsys):
        tmp_path, _, data_path, _ = workspace
        out_dir = tmp_path / "s"
        assert main(["sweep", "--data", str(data_path),
                     "--out", str(out_dir)] + DOMAIN) == EXIT_CONFIG
        assert "the following arguments are required: --proxy" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_unsafe_fit_runs(self, workspace):
        # fitting on the scored data is --proxy <the --data file>
        tmp_path, _, data_path, _ = workspace
        out_dir = tmp_path / "s"
        assert main(["sweep", "--data", str(data_path), "--proxy", str(data_path),
                     "--out", str(out_dir), "--epsilons", "2.0", "--repeats", "1",
                     "--mechanisms", "joint_clipping", "--min-devices", "5"] + DOMAIN) == EXIT_OK

    def test_manifest_says_whether_the_fit_used_the_scored_records(self, workspace):
        # the same path or a byte-identical copy: the fit saw the scored records
        tmp_path, _, data_path, proxy_path = workspace
        copy_path = tmp_path / "data_copy.csv"
        copy_path.write_bytes(data_path.read_bytes())
        for proxy, unsafe in ((data_path, True), (copy_path, True), (proxy_path, False)):
            out_dir = tmp_path / f"s_{proxy.stem}"
            assert main(["sweep", "--data", str(data_path), "--proxy", str(proxy),
                         "--out", str(out_dir), "--epsilons", "2.0", "--repeats", "1",
                         "--mechanisms", "joint_clipping", "--min-devices", "5"]
                        + DOMAIN) == EXIT_OK
            manifest = (out_dir / "manifest").read_text().splitlines()
            assert f"input_proxy = {proxy}" in manifest
            assert f"unsafe_fit = {unsafe}" in manifest

    def test_table_and_fitted_configs_name_the_same_epsilon(self, workspace):
        # the swept epsilon nearest 2.0; with 1.0 and 4.0 that is 1.0
        tmp_path, _, data_path, proxy_path = workspace
        out_dir = tmp_path / "s"
        assert main(["sweep", "--data", str(data_path), "--proxy", str(proxy_path),
                     "--out", str(out_dir), "--epsilons", "1.0,4.0", "--repeats", "1",
                     "--min-devices", "5"] + DOMAIN) == EXIT_OK
        table = (out_dir / "metric_table.txt").read_text().splitlines()
        assert table[0].startswith("weighted relative error by metric (epsilon = 1, ")
        configs = sorted(out_dir.glob("fitted_*.cfg"))
        assert len(configs) == 3
        for path in configs:
            assert "epsilon = 1.0" in path.read_text().splitlines()
            assert read_mechanism_config(path).epsilon == 1.0

    @pytest.mark.parametrize("command, flag", [
        ("sweep", ["--unsafe-fit"]),
        ("sweep", ["--table-epsilon", "1"]),
        ("eval", ["--duration-unit", "minutes"]),
    ], ids=["unsafe-fit", "table-epsilon", "duration-unit"])
    def test_deleted_flags_are_usage_errors(self, workspace, capsys, command, flag):
        # each setting has one source: the fit's file is --proxy, the table's
        # epsilon is the fitted configs' one and cells.csv is in seconds
        tmp_path, _, data_path, proxy_path = workspace
        out_dir = tmp_path / "out"
        other = {"sweep": ["--proxy", str(proxy_path)],
                 "eval": ["--released", str(data_path)]}[command]
        assert main([command, "--data", str(data_path), "--out", str(out_dir)] + other + flag
                    + DOMAIN) == EXIT_CONFIG
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_sweep_parses_a_proxy_with_the_datas_bytes_once(self, workspace, monkeypatch):
        # the same path or a copy: one parse, one hash per input, and every
        # output and manifest line but the proxy's path the same
        tmp_path, _, data_path, _ = workspace
        copy_path = tmp_path / "data_copy.csv"
        copy_path.write_bytes(data_path.read_bytes())
        reads, hashes = [], []

        def counted(calls, function):
            def call(path, *args, **kwargs):
                calls.append(path)
                return function(path, *args, **kwargs)
            return call

        monkeypatch.setattr(cli, "read_records_csv", counted(reads, read_records_csv))
        monkeypatch.setattr(cli, "_sha256", counted(hashes, _sha256))
        outputs = {}
        for proxy in (data_path, copy_path):
            out_dir = tmp_path / "s"
            reads.clear()
            hashes.clear()
            assert main(["sweep", "--data", str(data_path), "--proxy", str(proxy),
                         "--out", str(out_dir), "--epsilons", "1.0,2.0", "--repeats", "2",
                         "--min-devices", "5"] + DOMAIN) == EXIT_OK
            assert reads == [str(data_path)]
            assert hashes == [str(data_path), str(proxy)]
            outputs[proxy] = {path.name: path.read_bytes() for path in out_dir.iterdir()}
            manifest = outputs[proxy].pop("manifest").decode().splitlines()
            assert "unsafe_fit = True" in manifest
            assert f"input_proxy = {proxy}" in manifest
            outputs[proxy]["manifest"] = [line for line in manifest if not line.startswith(
                ("argv = ", "input_proxy = "))]
        assert len(outputs[data_path]) == 7  # three files, three fitted configs, the manifest
        assert outputs[data_path] == outputs[copy_path]

    def test_sweep_config_flag_is_a_usage_error(self, workspace, capsys):
        # the settings are flags only; there is no key-value settings file
        tmp_path, _, data_path, proxy_path = workspace
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("epsilons = 1.0,2.0\nrepeats = 1\n")
        out_dir = tmp_path / "s"
        assert main(["sweep", "--data", str(data_path), "--proxy", str(proxy_path),
                     "--out", str(out_dir), "--config", str(cfg)] + DOMAIN) == EXIT_CONFIG
        assert "unrecognized arguments: --config" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_test_mode_flag_is_a_usage_error(self, workspace, capsys):
        # no argument turns the noise off: every sweep cell is noised
        tmp_path, _, data_path, proxy_path = workspace
        out_dir = tmp_path / "s"
        assert main(["sweep", "--data", str(data_path), "--proxy", str(proxy_path),
                     "--out", str(out_dir), "--test-mode", "--epsilons", "2.0",
                     "--repeats", "1", "--mechanisms", "joint_clipping",
                     "--min-devices", "5"] + DOMAIN) == EXIT_CONFIG
        assert "unrecognized arguments: --test-mode" in capsys.readouterr().err
        assert not out_dir.exists()


    def test_outputs_do_not_depend_on_the_second_process(self, workspace, monkeypatch):
        # forked or in this process alone, every output and the manifest
        # are the same bytes
        tmp_path, _, data_path, proxy_path = workspace
        out_dir = tmp_path / "s"
        outputs = []
        for fork in (True, False):
            if not fork:
                monkeypatch.delattr(os, "fork", raising=False)
            assert main(["sweep", "--data", str(data_path), "--proxy", str(proxy_path),
                         "--out", str(out_dir), "--epsilons", "1.0,2.0", "--repeats", "2",
                         "--min-devices", "5"] + DOMAIN) == EXIT_OK
            outputs.append({path.name: path.read_bytes() for path in out_dir.iterdir()})
        assert len(outputs[0]) == 7  # three files, three fitted configs and the manifest
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("fails", ["fit_scales", "prepare_release"])
    def test_an_error_in_the_second_process_is_the_one_process_sweeps(
            self, workspace, monkeypatch, capsys, fails):
        # fit_scales runs only in the child, and so does budget_split's
        # prepare_release
        tmp_path, _, data_path, proxy_path = workspace
        original = getattr(evaluation, fails)

        def refuse(*args):
            if fails == "fit_scales" or args[0].mechanism_kind == "budget_split":
                raise ConfigError(f"{fails} refused")
            return original(*args)
        monkeypatch.setattr(evaluation, fails, refuse)
        out_dir = tmp_path / "s"
        capsys.readouterr()
        assert main(["sweep", "--data", str(data_path), "--proxy", str(proxy_path),
                     "--out", str(out_dir), "--epsilons", "2.0", "--repeats", "1",
                     "--min-devices", "5"] + DOMAIN) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {fails} refused\n"
        assert not (out_dir / "sweep.csv").exists()

    def test_out_of_domain_records_in_both_inputs_name_the_proxys(self, workspace, capsys):
        # the fit reads the proxy before the truth reads the data
        tmp_path, _, data_path, proxy_path = workspace
        for path, region in ((data_path, 8), (proxy_path, 7)):
            path.write_bytes(path.read_bytes() + f"extra_user,{region},0,0,1.5,300.0\r\n".encode())
        out_dir = tmp_path / "s"
        capsys.readouterr()
        assert main(["sweep", "--data", str(data_path), "--proxy", str(proxy_path),
                     "--out", str(out_dir), "--epsilons", "2.0", "--repeats", "1",
                     "--min-devices", "5"] + DOMAIN) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == ("error: record (region=7, activity=0, direction=0) out of bounds for "
                       "Dimensions(num_activities=9, num_regions=6)\n")
        assert not out_dir.exists()

    def test_table_and_agg_are_the_aggregates_of_sweep_csv(self, workspace):
        tmp_path, _, data_path, proxy_path = workspace
        out_dir = tmp_path / "s"
        mechanisms, epsilons, repeats = ("joint_clipping", "activity_metric_scaling"), (1.0, 2.0), 3
        assert main(["sweep", "--data", str(data_path), "--proxy", str(proxy_path),
                     "--out", str(out_dir), "--epsilons", "1.0,2.0", "--repeats", str(repeats),
                     "--mechanisms", ",".join(mechanisms), "--min-devices", "5"]
                    + DOMAIN) == EXIT_OK
        wre = {}  # (mechanism, epsilon) -> one {metric: wre} per repeat, in file order
        with open(out_dir / "sweep.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                cell = wre.setdefault((row["mechanism"], float(row["epsilon"])), {})
                cell.setdefault(int(row["repeat"]), {})[row["metric"]] = float(row["wre"])
        assert list(wre) == [(kind, eps) for kind in mechanisms for eps in epsilons]
        with open(out_dir / "sweep_agg.csv", newline="") as fh:
            agg = {(row["mechanism"], float(row["epsilon"])): row for row in csv.DictReader(fh)}
        assert list(agg) == list(wre)
        for cell, by_repeat in wre.items():
            assert sorted(by_repeat) == list(range(repeats))
            overall = [float(np.mean([m[name] for name in METRIC_NAMES]))
                       for m in by_repeat.values()]
            assert float(agg[cell]["wre_mean"]) == float(np.mean(overall))
            assert float(agg[cell]["wre_std"]) == float(np.std(overall, ddof=1))

        table = (out_dir / "metric_table.txt").read_text().splitlines()
        assert table[0] == ("weighted relative error by metric "
                            f"(epsilon = 2, {repeats} repeats, min_devices = 5)")
        width = max(map(len, mechanisms)) + 2
        for kind in mechanisms:
            by_metric = [np.mean([m[name] for m in wre[(kind, 2.0)].values()])
                         for name in METRIC_NAMES]
            assert f"{kind:<{width}}" + "".join(f"{v:>12.4f}" for v in by_metric) in table


def test_usage_error_exits_config(tmp_path, capsys):
    assert main(["frobnicate"]) == EXIT_CONFIG
    assert main([]) == EXIT_CONFIG
    # sweep writes the table and its aggregates; no command re-renders them
    assert main(["report", "--sweep", str(tmp_path / "sweep.csv"),
                 "--out", str(tmp_path / "r")]) == EXIT_CONFIG
    assert "invalid choice: 'report'" in capsys.readouterr().err


def test_readme_quick_start_runs(tmp_path, monkeypatch, capsys):
    """Every `dpgb` command of the README's Quick start parses and exits 0,
    on the spec its heredoc writes with a few hundred users."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## Quick start", 1)[1].split("```", 2)[1]
    heredoc = re.search(r"cat > (\S+) <<'EOF'\n(.*?\n)EOF\n", block, re.S)
    spec, edits = re.subn(r"num_users = \d+", "num_users = 300", heredoc.group(2))
    assert edits == 1
    (tmp_path / heredoc.group(1)).write_text(spec, encoding="utf-8")
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("dpgb ")]
    assert {"generate", "sweep", "release", "eval"} <= {argv[1] for argv in commands}
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        capsys.readouterr()
        assert main(argv[1:]) == EXIT_OK, (argv, capsys.readouterr().err)


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
                 "--min-devices", "5"] + DOMAIN) == EXIT_OK
    released = tmp_path / "released.csv"
    assert main(["release", "--data", str(data_path), "--config",
                 str(sweep_dir / "fitted_budget_split.cfg"), "--out", str(released),
                 "--num-regions", "6"]) == EXIT_OK
    assert main(["eval", "--data", str(data_path), "--released", str(released),
                 "--out", str(tmp_path / "eval"), "--min-devices", "5"] + DOMAIN) == EXIT_OK


def test_release_holds_one_dense_vector(workspace, monkeypatch):
    """`dpgb release` at the production domain noises its aggregate in
    place, one slice at a time: up to the CSV write it holds, beside the one
    dense vector, only slice-sized scratch and the data of 120 users."""
    tmp_path, _, data_path, _ = workspace
    cfg_path = make_config(tmp_path, data_path)
    dims = Dimensions(num_activities=9, num_regions=50_000)
    seen = {}

    def measure(path, dense, _):
        seen["peak"] = tracemalloc.get_traced_memory()[1]
        seen["dense"] = dense
    monkeypatch.setattr(cli, "write_histogram_csv", measure)
    tracemalloc.start()
    try:
        assert main(["release", "--data", str(data_path), "--config", str(cfg_path),
                     "--out", str(tmp_path / "released.csv"),
                     "--num-regions", str(dims.num_regions)]) == EXIT_OK
    finally:
        tracemalloc.stop()
    released = seen["dense"]
    assert released.size == dims.total_cells and np.count_nonzero(released) > 0
    assert seen["peak"] < 1.5 * dims.total_cells * 8


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
    (["--seed", "-3"], "seed must be >= 0, got -3"),
    (["--repeats", "0"], "repeats must be >= 1, got 0"),
    (["--min-devices", "-7"], "min_devices must be >= 0, got -7"),
])
def test_sweep_rejects_bad_settings_before_fitting(workspace, monkeypatch, capsys, flags, named):
    tmp_path, _, data_path, proxy_path = workspace

    def refuse(*args, **kwargs):
        raise AssertionError("fitted before the settings were checked")
    monkeypatch.setattr("dpgb.evaluation.fit_hyperparameters", refuse)

    def refuse_to_read(*args, **kwargs):
        raise AssertionError("read the records before the settings were checked")
    monkeypatch.setattr("dpgb.cli.read_records_csv", refuse_to_read)
    out_dir = tmp_path / "s"
    assert main(["sweep", "--data", str(data_path), "--proxy", str(proxy_path),
                 "--out", str(out_dir), "--repeats", "1"] + DOMAIN + flags) == EXIT_CONFIG
    assert named in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_release_exits_2_when_the_child_writing_the_second_half_fails(
        workspace, monkeypatch, capsys):
    tmp_path, _, data_path, _ = workspace
    cfg_path = make_config(tmp_path, data_path)
    monkeypatch.setattr(schema, "_FORK_ROWS", 0)
    parent, write_rows = os.getpid(), schema._write_rows

    def fail_in_child(*args):
        if os.getpid() != parent:
            raise OSError(28, "No space left on device")
        write_rows(*args)
    monkeypatch.setattr(schema, "_write_rows", fail_in_child)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    assert main(["release", "--data", str(data_path), "--config", str(cfg_path),
                 "--out", str(out_dir / "released.csv"), "--num-regions", "6"]) == EXIT_IO
    assert ("i/o error: the child process for the second half exited with status 1"
            in capsys.readouterr().err)
    assert os.listdir(out_dir) == []  # no half file, no temporary file


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_generate_exits_2_when_the_child_drawing_the_second_half_fails(
        tmp_path, monkeypatch, capsys):
    spec_path = tmp_path / "gen.cfg"
    spec_path.write_text(GEN_CFG)
    monkeypatch.setattr(schema, "_FORK_ROWS", 0)
    parent, write_rows = os.getpid(), datagen.write_record_rows

    def fail_in_child(*args):
        if os.getpid() != parent:
            raise OSError(28, "No space left on device")
        write_rows(*args)
    monkeypatch.setattr(datagen, "write_record_rows", fail_in_child)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    assert main(["generate", "--spec", str(spec_path),
                 "--out", str(out_dir / "data.csv")]) == EXIT_IO
    assert ("i/o error: the child process for the second half exited with status 1"
            in capsys.readouterr().err)
    # no half file, no manifest and no temporary file
    assert os.listdir(out_dir) == []


@pytest.mark.usefixtures("second_half")
@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o002, 0o664)])
def test_written_files_take_the_mode_of_a_plain_open(tmp_path, umask, mode):
    # generate and release rename their file into place; it gets the mode
    # open(path, "wb") gives under the umask, not a temporary file's 0600
    spec_path = tmp_path / "gen.cfg"
    spec_path.write_text(GEN_CFG)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    data_path, released = out_dir / "data.csv", out_dir / "released.csv"
    old = os.umask(umask)
    try:
        assert main(["generate", "--spec", str(spec_path), "--out", str(data_path)]) == EXIT_OK
        cfg_path = make_config(tmp_path, data_path)
        assert main(["release", "--data", str(data_path), "--config", str(cfg_path),
                     "--out", str(released), "--num-regions", "6"]) == EXIT_OK
    finally:
        os.umask(old)
    assert sorted(os.listdir(out_dir)) == ["data.csv", "data.csv.manifest", "released.csv",
                                           "released.csv.ledger", "released.csv.manifest"]
    for path in (data_path, released):
        assert stat.S_IMODE(path.stat().st_mode) == mode


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
                 "--out", str(tmp_path / "s"), "--epsilons", "2.0",
                 "--repeats", "1"] + DOMAIN) == EXIT_CONFIG
    assert "fit_clip needs a non-empty dataset" in capsys.readouterr().err
    assert not (tmp_path / "s" / "sweep.csv").exists()


def test_commands_import_neither_numpy_ma_nor_fractions(tmp_path):
    """generate, sweep, release and eval, run in one fresh interpreter,
    leave ``numpy.ma`` (pulled in by a plain ``np.unique``) and ``fractions``
    (which pulls in ``decimal``) unimported."""
    (tmp_path / "gen.cfg").write_text(GEN_CFG)
    script = f"""
import sys
from dpgb.cli import main
domain = {DOMAIN!r}
for argv in (["generate", "--spec", "gen.cfg", "--out", "data.csv"],
             ["sweep", "--data", "data.csv", "--proxy", "data.csv", "--out", "s",
              "--epsilons", "2.0", "--repeats", "1", "--min-devices", "5"] + domain,
             ["release", "--data", "data.csv", "--config", "s/fitted_budget_split.cfg",
              "--out", "released.csv", "--num-regions", "6"],
             ["eval", "--data", "data.csv", "--released", "released.csv", "--out", "eval",
              "--min-devices", "5"] + domain):
    assert main(argv) == 0, argv
print(sorted(name for name in ("numpy.ma", "fractions") if name in sys.modules))
"""
    assert _last_line_in_a_fresh_interpreter(tmp_path, script) == "[]"


def test_sweep_does_not_import_orjson(tmp_path):
    """A sweep-only run in a fresh interpreter leaves ``orjson`` unimported:
    sweep formats no bulk floats, and the writers that do import it on use."""
    (tmp_path / "gen.cfg").write_text(GEN_CFG)
    assert main(["generate", "--spec", str(tmp_path / "gen.cfg"),
                 "--out", str(tmp_path / "data.csv")]) == EXIT_OK
    script = f"""
import sys
from dpgb.cli import main
assert main(["sweep", "--data", "data.csv", "--proxy", "data.csv", "--out", "s",
             "--epsilons", "2.0", "--repeats", "1", "--min-devices", "5"] + {DOMAIN!r}) == 0
print("orjson" in sys.modules)
"""
    assert _last_line_in_a_fresh_interpreter(tmp_path, script) == "False"


def _last_line_in_a_fresh_interpreter(cwd, script: str) -> str:
    """The last line ``script`` prints, run by a new interpreter in ``cwd``
    with this checkout's ``dpgb`` first on its path."""
    src = Path(cli.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-c", script], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]
