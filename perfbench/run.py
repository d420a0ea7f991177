#!/usr/bin/env python3
"""Benchmark of the ``dpgb`` command-line interface.

    python3 perfbench/run.py --workload desk_sweep --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  Each run generates its inputs from ``--seed``, runs the
workload's set-up commands ``SETUP_REPEATS`` times, then repeats whole
rounds of its timed commands until ``--seconds`` of them have been
measured.  Every command is a fresh ``python3 -m dpgb.cli`` child, started
one at a time; its wall time is taken around the child and its peak RSS and
CPU time come from ``wait4``.  When the timing is over, the outputs are
checked against ``reference.py``, which recomputes them from the CSV files
without importing ``dpgb``.  All files live in a fresh directory under
``.perfbench_work/`` that is removed at the end.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics (``setup_s``, ``pass_s``, ``peak_rss_mb``, each a
median over repetitions); with ``--trace 1`` it holds the per-layer metrics
of one traced set-up and one traced round (see ``layer_trace.py``), and the
spans are kept in ``.perfbench_work/traces/``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import layer_trace
import reference as ref

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_REPEATS = 3
COMMAND_TIMEOUT_S = 150.0   # a child still running then is killed and counted as failed
ROUND_START_LIMIT_S = 90.0  # no new timed round starts this long after the run began

NUM_ACTIVITIES = 9
RELEASE_EPSILON = 2.0
MIN_DEVICES = 20            # the CLI's default device floor
FIT_QUANTILE = 0.95         # the CLI's default fitting quantile
SWEEP_EPSILONS = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0)  # the CLI's default grid
SWEEP_MECHANISMS = ("joint_clipping", "budget_split", "activity_metric_scaling")
SWEEP_REPEATS = 20
FAR_CELL_SCALES = 3.0       # "far above the noise": expected value over 3 noise scales
TOLERANCE_SIGMAS = 6.0

END_TO_END = (("setup_s", "s"), ("pass_s", "s"), ("peak_rss_mb", "MB"))


@dataclass(frozen=True)
class Shape:
    users: int
    regions: int
    proxy_users: int


SHAPES = {
    "desk_sweep": Shape(users=10_000, regions=100, proxy_users=10_000),
    "prod_release_eval": Shape(users=10_000, regions=50_000, proxy_users=10_000),
    "fleet_release_eval": Shape(users=50_000, regions=100, proxy_users=10_000),
}


class CheckFailed(Exception):
    pass


@dataclass
class Child:
    wall: float
    cpu: float
    rss_mb: float
    code: int


@dataclass
class Tally:
    """Operations (commands and output checks) attempted and failed."""

    attempted: int = 0
    failed: int = 0

    def record(self, ok: bool, message: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: FAILED {message}", file=sys.stderr)


# --- workloads ---------------------------------------------------------------

class Workload:
    """Commands and output checks of one workload; paths are relative to a round."""

    setup_outputs = ("data.csv", "proxy.csv")

    def __init__(self, name: str, shape: Shape, seed: int) -> None:
        self.name, self.shape, self.seed = name, shape, seed
        self.domain = ref.Domain(NUM_ACTIVITIES, shape.regions)

    def write_specs(self, setup_dir: Path) -> None:
        for stem, users, seed in (("data", self.shape.users, 2 * self.seed),
                                  ("proxy", self.shape.proxy_users, 2 * self.seed + 1)):
            (setup_dir / f"{stem}.spec").write_text(
                f"num_users = {users}\nnum_regions = {self.shape.regions}\nseed = {seed}\n",
                encoding="utf-8")

    def setup_commands(self) -> list[list[str]]:
        return [["generate", "--spec", "data.spec", "--out", "data.csv"],
                ["generate", "--spec", "proxy.spec", "--out", "proxy.csv"]]

    def domain_flags(self) -> list[str]:
        return ["--num-regions", str(self.shape.regions),
                "--num-activities", str(NUM_ACTIVITIES)]


class DeskSweep(Workload):
    pass_outputs = ("sweep/sweep.csv", "sweep/sweep_agg.csv") + tuple(
        f"sweep/fitted_{kind}.cfg" for kind in SWEEP_MECHANISMS)

    def pass_commands(self, inputs: str) -> list[list[str]]:
        return [["sweep", "--data", f"{inputs}/data.csv", "--proxy", f"{inputs}/proxy.csv",
                 "--out", "sweep", "--seed", str(self.seed)] + self.domain_flags()]

    def checks(self, setup_dir: Path, out_dir: Path):
        sweep = out_dir / "sweep"
        return [
            ("sweep.csv holds each (mechanism, epsilon, repeat, metric) once, finite and > 0",
             lambda: check_sweep_rows(sweep / "sweep.csv")),
            ("mean overall WRE falls at every step up the epsilon grid",
             lambda: check_sweep_monotone(sweep / "sweep.csv")),
            ("activity_metric_scaling has the lowest mean overall WRE at epsilon 2",
             lambda: check_sweep_best(sweep / "sweep.csv")),
            ("fitted configs equal the reference quantiles of the proxy",
             lambda: check_fitted_configs(self, setup_dir / "proxy.csv", sweep)),
        ]


class ReleaseEval(Workload):
    setup_outputs = Workload.setup_outputs + ("fit/fitted_activity_metric_scaling.cfg",)
    pass_outputs = ("released.csv", "released.csv.ledger", "eval/report.txt", "eval/cells.csv")

    def __init__(self, name: str, shape: Shape, seed: int, check_empty_cells: bool) -> None:
        super().__init__(name, shape, seed)
        self.check_empty_cells = check_empty_cells

    def setup_commands(self) -> list[list[str]]:
        return super().setup_commands() + [
            ["sweep", "--data", "proxy.csv", "--proxy", "proxy.csv", "--out", "fit",
             "--mechanisms", "activity_metric_scaling", "--epsilons", repr(RELEASE_EPSILON),
             "--repeats", "1", "--seed", str(self.seed)] + self.domain_flags()]

    def pass_commands(self, inputs: str) -> list[list[str]]:
        return [
            ["release", "--data", f"{inputs}/data.csv",
             "--config", f"{inputs}/fit/fitted_activity_metric_scaling.cfg",
             "--out", "released.csv", "--seed", str(self.seed),
             "--num-regions", str(self.shape.regions)],
            ["eval", "--data", f"{inputs}/data.csv", "--released", "released.csv",
             "--out", "eval"] + self.domain_flags(),
        ]

    def checks(self, setup_dir: Path, out_dir: Path):
        state = {}

        def load():
            if not state:
                state["config"] = ref.read_kv(setup_dir / "fit/fitted_activity_metric_scaling.cfg")
                state["records"] = ref.read_records(setup_dir / "data.csv")
                state["released"] = ref.read_histogram(out_dir / "released.csv")
            return state

        checks = [
            ("fitted activity_metric_scaling config equals the reference quantiles of the proxy",
             lambda: check_ams_config(self, setup_dir / "proxy.csv",
                                      setup_dir / "fit/fitted_activity_metric_scaling.cfg")),
            ("every released row lies in the domain, appears once and is positive",
             lambda: check_released_rows(self.domain, load()["released"])),
            ("the ledger total equals epsilon",
             lambda: check_ledger(out_dir / "released.csv.ledger",
                                  out_dir / "released.csv.manifest", load()["config"])),
            ("normalised residuals of cells far above the noise are unit Laplace",
             lambda: check_far_cells(self.domain, load())),
            ("report.txt WRE and eligible counts equal the reference",
             lambda: check_report(self.domain, load(), out_dir / "eval/report.txt")),
        ]
        if self.check_empty_cells:
            checks.append(("true-empty cells are released half the time with unit mean",
                           lambda: check_empty_cells(self.domain, load())))
        return checks


def make_workload(name: str, seed: int, shapes=None) -> Workload:
    shape = (shapes or SHAPES)[name]
    if name == "desk_sweep":
        return DeskSweep(name, shape, seed)
    return ReleaseEval(name, shape, seed, check_empty_cells=name == "prod_release_eval")


# --- checks ------------------------------------------------------------------

def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _rel_close(got, want, rel: float) -> bool:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and bool(np.all(np.abs(got - want) <= rel * np.abs(want)))


def _sweep_overall(path) -> dict[tuple[str, float], list[float]]:
    per_run: dict[tuple[str, float, int], dict[str, float]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            per_run.setdefault((row["mechanism"], float(row["epsilon"]), int(row["repeat"])),
                               {})[row["metric"]] = float(row["wre"])
    overall: dict[tuple[str, float], list[float]] = {}
    for (kind, eps, _), wre in per_run.items():
        overall.setdefault((kind, eps), []).append(
            sum(wre[name] for name in ref.METRIC_NAMES) / len(ref.METRIC_NAMES))
    return overall


def check_sweep_rows(path) -> None:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        _require(next(reader) == ["mechanism", "epsilon", "repeat", "metric", "wre"],
                 "sweep.csv header")
        rows = [row for row in reader if row]
    keys = [(r[0], float(r[1]), int(r[2]), r[3]) for r in rows]
    expected = {(kind, eps, rep, metric) for kind in SWEEP_MECHANISMS for eps in SWEEP_EPSILONS
                for rep in range(SWEEP_REPEATS) for metric in ref.METRIC_NAMES}
    _require(len(keys) == len(set(keys)), "duplicate sweep rows")
    _require(set(keys) == expected, f"{len(set(keys) ^ expected)} sweep rows missing or extra")
    wre = np.array([float(r[4]) for r in rows])
    _require(bool(np.all(np.isfinite(wre) & (wre > 0))), "a WRE is not finite and > 0")


def check_sweep_monotone(path) -> None:
    overall = _sweep_overall(path)
    for kind in SWEEP_MECHANISMS:
        means = [statistics.fmean(overall[(kind, eps)]) for eps in SWEEP_EPSILONS]
        _require(all(b < a for a, b in zip(means, means[1:])),
                 f"{kind}: mean overall WRE does not fall with epsilon: {means}")


def check_sweep_best(path) -> None:
    overall = _sweep_overall(path)
    means = {kind: statistics.fmean(overall[(kind, 2.0)]) for kind in SWEEP_MECHANISMS}
    _require(min(means, key=means.get) == "activity_metric_scaling",
             f"mean overall WRE at epsilon 2: {means}")


def check_ams_config(wl: Workload, proxy_path, config_path) -> None:
    proxy = ref.read_records(proxy_path)
    scales = ref.fitted_scales(proxy, wl.domain, FIT_QUANTILE)
    cfg = ref.read_kv(config_path)
    _require(cfg["mechanism_kind"] == "activity_metric_scaling", "mechanism kind")
    _require(_rel_close(ref.parse_grid(cfg["scales"], NUM_ACTIVITIES), scales, 1e-12),
             "activity_metric_scaling scales differ from the reference quantiles")
    clip = ref.fitted_clip(proxy, wl.domain, scales, FIT_QUANTILE)
    _require(_rel_close(float(cfg["clip"]), clip, 1e-12),
             f"activity_metric_scaling clip {cfg['clip']} != reference {clip!r}")


def check_fitted_configs(wl: Workload, proxy_path, sweep_dir: Path) -> None:
    check_ams_config(wl, proxy_path, sweep_dir / "fitted_activity_metric_scaling.cfg")
    proxy = ref.read_records(proxy_path)
    ones = np.ones((NUM_ACTIVITIES, ref.NUM_METRICS))
    joint = ref.read_kv(sweep_dir / "fitted_joint_clipping.cfg")
    want = ref.fitted_clip(proxy, wl.domain, ones, FIT_QUANTILE)
    _require(_rel_close(float(joint["clip"]), want, 1e-12),
             f"joint_clipping clip {joint['clip']} != reference {want!r}")
    split = ref.read_kv(sweep_dir / "fitted_budget_split.cfg")
    _require(_rel_close(ref.parse_grid(split["clip_grid"], NUM_ACTIVITIES),
                        ref.fitted_scales(proxy, wl.domain, FIT_QUANTILE), 1e-12),
             "budget_split clip grid differs from the reference slice quantiles")


def check_released_rows(dom: ref.Domain, released) -> None:
    a, m, r, d, v = released
    _require(bool(np.all((a >= 0) & (a < dom.num_activities) & (m >= 0) & (m < 3)
                         & (r >= 0) & (r < dom.num_regions) & (d >= 0) & (d < 3))),
             "a released row lies outside the domain")
    cells = dom.cell(a, m, r, d)
    _require(np.unique(cells).size == cells.size, "a released cell appears twice")
    _require(bool(np.all(np.isfinite(v) & (v > 0))), "a released value is not finite and > 0")


def check_ledger(ledger_path, manifest_path, config) -> None:
    epsilon = float(config["epsilon"])
    totals = [line.split(",", 1)[1] for line in Path(ledger_path).read_text().splitlines()
              if line.startswith("total,")]
    _require(len(totals) == 1 and math.isclose(float(totals[0]), epsilon, rel_tol=1e-12),
             f"ledger total {totals} != epsilon {epsilon!r}")
    manifest = ref.read_kv(manifest_path)
    _require(math.isclose(float(manifest["ledger_total"]), epsilon, rel_tol=1e-12),
             f"manifest ledger_total {manifest['ledger_total']} != epsilon {epsilon!r}")


def _noise_model(dom: ref.Domain, state):
    """Released dense vector, expected value and per-cell noise scale b * S(a, m)."""
    cfg = state["config"]
    scales = ref.parse_grid(cfg["scales"], NUM_ACTIVITIES)
    clip, epsilon = float(cfg["clip"]), float(cfg["epsilon"])
    aggregate = ref.clipped_aggregate(state["records"], dom, scales, clip)
    per_cell = scales.reshape(-1)[dom.slice_of_cell()]
    released = ref.dense_histogram(state["released"], dom)
    return released, aggregate * per_cell, clip / epsilon * per_cell


def check_far_cells(dom: ref.Domain, state) -> None:
    released, expected, noise = _noise_model(dom, state)
    far = expected > FAR_CELL_SCALES * noise
    n = int(far.sum())
    _require(n >= 30, f"only {n} cells lie far above the noise scale")
    z = (released[far] - expected[far]) / noise[far]
    mean_abs, mean = float(np.abs(z).mean()), float(z.mean())
    # a cell whose noise falls below -FAR_CELL_SCALES is clamped to 0, which
    # moves either mean by at most P(Laplace(1) < -k) = exp(-k) / 2
    clamp_bias = math.exp(-FAR_CELL_SCALES) / 2
    _require(abs(mean_abs - 1.0) <= TOLERANCE_SIGMAS / math.sqrt(n) + clamp_bias,
             f"mean |residual| / scale = {mean_abs} over {n} cells, expected 1")
    _require(abs(mean) <= TOLERANCE_SIGMAS * math.sqrt(2.0 / n) + clamp_bias,
             f"mean residual / scale = {mean} over {n} cells, expected 0")


def check_empty_cells(dom: ref.Domain, state) -> None:
    released, expected, noise = _noise_model(dom, state)
    empty = expected == 0.0
    n = int(empty.sum())
    shown = released[empty] > 0
    k = int(shown.sum())
    _require(n >= 1000 and k >= 100, f"{k} of {n} true-empty cells released")
    share = k / n
    _require(abs(share - 0.5) <= TOLERANCE_SIGMAS * 0.5 / math.sqrt(n),
             f"{share} of {n} true-empty cells released, expected 1/2")
    mean = float((released[empty][shown] / noise[empty][shown]).mean())
    _require(abs(mean - 1.0) <= TOLERANCE_SIGMAS / math.sqrt(k),
             f"released true-empty cells have normalised mean {mean}, expected 1")


def check_report(dom: ref.Domain, state, report_path) -> None:
    records = state["records"]
    want = ref.weighted_relative_error(
        ref.exact_totals(records, dom), ref.device_counts(records, dom),
        ref.dense_histogram(state["released"], dom), dom, MIN_DEVICES)
    got = {}
    for line in Path(report_path).read_text(encoding="utf-8").splitlines():
        name, sep, rest = line.partition(": wre = ")
        if sep:
            wre, _, rest = rest.partition(", eligible = ")
            got[name] = (float(wre), int(rest.partition(",")[0]))
    for name in ref.METRIC_NAMES:
        _require(name in got, f"report.txt has no {name} line")
        (wre, eligible), (ref_wre, ref_eligible) = got[name], want[name]
        _require(eligible == ref_eligible, f"{name}: eligible {eligible} != {ref_eligible}")
        _require(math.isclose(wre, ref_wre, rel_tol=1e-9),
                 f"{name}: wre {wre!r} != reference {ref_wre!r}")


# --- running commands --------------------------------------------------------

def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("DPGB_THREADS", None)  # the sweep runs at the CLI's default thread count
    return env


def run_child(argv: list[str], cwd: Path, log_name: str) -> Child:
    """Run one child to completion; wall time around it, usage from wait4."""
    with open(cwd / log_name, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=_child_env(), stdout=log,
                                stderr=subprocess.STDOUT)
        killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = (cwd / log_name).read_text(errors="replace")[-2000:]
        print(f"perfbench: `{' '.join(argv[1:])}` exited {proc.returncode}\n{tail}",
              file=sys.stderr)
    return Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                 proc.returncode)


def run_commands(commands, cwd: Path, tally: Tally, spans_dir: Path | None = None) -> list[Child]:
    """Run one whole round; with ``spans_dir`` each command runs under the tracer."""
    cwd.mkdir(parents=True, exist_ok=True)
    results = []
    for i, args in enumerate(commands):
        if spans_dir is None:
            argv = [sys.executable, "-m", "dpgb.cli", *args]
        else:
            spans = spans_dir / f"{cwd.name}-{i}-{args[0]}.json"
            argv = [sys.executable, str(HERE / "layer_trace.py"), "--spans", str(spans),
                    "--", *args]
        child = run_child(argv, cwd, f"{i}-{args[0]}.log")
        results.append(child)
        tally.record(child.code == 0, f"dpgb {args[0]} exited {child.code} in {cwd.name}")
    return results


def _digest(directory: Path, names) -> dict[str, str]:
    out = {}
    for name in names:
        path = directory / name
        out[name] = hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else ""
    return out


def _same_outputs(tally: Tally, first: dict, other: dict, what: str) -> None:
    differ = sorted(name for name in first if first[name] != other[name] or not first[name])
    tally.record(not differ, f"{what} differ from the first: {differ}")


def _run_checks(wl: Workload, setup_dir: Path, out_dir: Path, tally: Tally) -> None:
    for label, check in wl.checks(setup_dir, out_dir):
        try:
            check()
            tally.record(True)
        except CheckFailed as exc:
            tally.record(False, f"{label}: {exc}")
        except (OSError, KeyError, ValueError, IndexError) as exc:
            tally.record(False, f"{label}: {type(exc).__name__}: {exc}")


# --- one run -----------------------------------------------------------------

def _fmt(values) -> str:
    return "[" + ", ".join(f"{v:.3f}" for v in values) + "]"


def _metrics(values: dict[str, float], units) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in units}


def _setup(wl: Workload, tmp: Path, tally: Tally, repeats: int, spans_dir=None) -> list[float]:
    """Set up ``repeats`` times; the inputs of setup-0 feed the timed rounds."""
    walls, first = [], None
    for rep in range(repeats):
        setup_dir = tmp / f"setup-{rep}"
        setup_dir.mkdir()
        wl.write_specs(setup_dir)
        children = run_commands(wl.setup_commands(), setup_dir, tally, spans_dir)
        walls.append(sum(c.wall for c in children))
        if any(c.code for c in children):
            break
        digest = _digest(setup_dir, wl.setup_outputs)
        if first is None:
            first = digest
        else:
            _same_outputs(tally, first, digest, f"set-up outputs of repetition {rep}")
            shutil.rmtree(setup_dir)
    return walls


def run_timed(wl: Workload, tmp: Path, seconds: float, tally: Tally) -> dict:
    started = time.perf_counter()
    setup_walls = _setup(wl, tmp, tally, SETUP_REPEATS)
    pass_walls, peaks, first = [], [], None
    measured = 0.0
    while not tally.failed and (not pass_walls or (
            measured < seconds and time.perf_counter() - started < ROUND_START_LIMIT_S)):
        round_dir = tmp / f"round-{len(pass_walls)}"
        children = run_commands(wl.pass_commands("../setup-0"), round_dir, tally)
        pass_walls.append(sum(c.wall for c in children))
        peaks.append(max(c.rss_mb for c in children))
        measured += pass_walls[-1]
        if tally.failed:
            break
        digest = _digest(round_dir, wl.pass_outputs)
        if first is None:
            first = digest
        else:
            _same_outputs(tally, first, digest, f"outputs of {round_dir.name}")
            shutil.rmtree(round_dir)
    if not tally.failed:
        _run_checks(wl, tmp / "setup-0", tmp / "round-0", tally)
    values = {"setup_s": statistics.median(setup_walls),
              "pass_s": statistics.median(pass_walls) if pass_walls else 0.0,
              "peak_rss_mb": statistics.median(peaks) if peaks else 0.0}
    print(f"{wl.name} seed {wl.seed}: set-ups {_fmt(setup_walls)} s, rounds {_fmt(pass_walls)} s")
    for name, unit in END_TO_END:
        print(f"  {name} = {values[name]:.4f} {unit}")
    return _metrics(values, END_TO_END)


def run_traced(wl: Workload, tmp: Path, tally: Tally) -> dict:
    spans_dir = tmp / "spans"
    spans_dir.mkdir()
    _setup(wl, tmp, tally, 1, spans_dir)
    untraced = [] if tally.failed else run_commands(
        wl.pass_commands("../setup-0"), tmp / "round-0", tally)
    traced = [] if tally.failed else run_commands(
        wl.pass_commands("../setup-0"), tmp / "round-1", tally, spans_dir)
    if not tally.failed:
        _same_outputs(tally, _digest(tmp / "round-0", wl.pass_outputs),
                      _digest(tmp / "round-1", wl.pass_outputs), "traced outputs")
        _run_checks(wl, tmp / "setup-0", tmp / "round-0", tally)
    spans = layer_trace.merge_spans(sorted(spans_dir.glob("*.json")))
    values = layer_trace.layer_metrics(spans)
    values["cli.cpu_s"] = sum(c.cpu for c in untraced)
    values["trace.overhead_s"] = sum(c.wall for c in traced) - sum(c.wall for c in untraced)
    traces = WORK / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    out = traces / f"{wl.name}-seed{wl.seed}.json"
    out.write_text(json.dumps({"workload": wl.name, "seed": wl.seed, "spans": spans}),
                   encoding="utf-8")
    print(f"{wl.name} seed {wl.seed}: {len(spans)} spans written to {out}")
    for name, unit in layer_trace.PER_LAYER:
        print(f"  {name} = {values[name]:.6g} {unit}")
    return _metrics(values, layer_trace.PER_LAYER)


def run(workload: str, seed: int, seconds: float, trace: bool, shapes=None) -> dict:
    wl = make_workload(workload, seed, shapes)
    tally = Tally()
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    try:
        if trace:
            metrics = run_traced(wl, tmp, tally)
        else:
            metrics = run_timed(wl, tmp, seconds, tally)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SHAPES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="timed commands are repeated in whole rounds until this much "
                             "of them has been measured")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "dpgb" / "cli.py").is_file():
        print(f"perfbench: no dpgb sources at {SRC / 'dpgb'}; run from a source checkout",
              file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"attempted {result['attempted']} operations, {result['failed']} failed")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
