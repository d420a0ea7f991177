"""Command-line driver: generate, release, eval, sweep, report.

Every command is a pure function of its input files, flags, and seeds; no
wall clock, locale, or filesystem-order dependence enters the outputs, and
each command writes a key=value manifest so a run can be reproduced
bit-for-bit.  Exit codes are stable API: 0 success, 1 configuration error,
2 I/O error, 3 privacy-budget violation.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .aggregation import write_ledger
from .datagen import generate, ground_truth, read_generator_spec
from .dp_core import BudgetExceededError
from .evaluation import (
    DEFAULT_EPSILON_GRID,
    DEFAULT_MECHANISMS,
    DEFAULT_MIN_DEVICES,
    METRIC_NAMES,
    ScoringPlan,
    SweepResult,
    read_sweep_csv,
    render_metric_table,
    sweep,
    weighted_relative_error,
    write_curve_data,
    write_sweep_agg_csv,
    write_sweep_csv,
)
from .mechanisms import manifest_line, run_release
from .schema import (
    ConfigError,
    infer_dimensions,
    read_histogram_csv,
    read_kv_file,
    read_mechanism_config,
    read_records_csv,
    write_histogram_csv,
    write_mechanism_config,
    write_records_csv,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IO = 2
EXIT_BUDGET = 3


class _Parser(argparse.ArgumentParser):
    # usage errors are configuration errors (exit 1), not argparse's exit 2
    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}\n{self.format_usage()}")


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _write_manifest(path, command: str, argv, inputs: dict, outputs, extra: dict) -> None:
    lines = [f"command = {command}", f"version = dpgb {__version__}",
             f"argv = {' '.join(argv)}"]
    for name, in_path in inputs.items():
        lines.append(f"input_{name} = {in_path}")
        lines.append(f"input_{name}_sha256 = {_sha256(in_path)}")
    for out_path in outputs:
        lines.append(f"output = {out_path}")
    for key, value in extra.items():
        lines.append(f"{key} = {value}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _resolve_threads(value: int | None) -> int:
    if value is not None and value > 0:
        return value
    env = os.environ.get("DPGB_THREADS", "")
    if env.strip():
        try:
            parsed = int(env)
        except ValueError:
            raise ConfigError(f"DPGB_THREADS must be an integer, got {env!r}") from None
        if parsed > 0:
            return parsed
    return os.cpu_count() or 1


def cmd_generate(args, argv) -> int:
    spec = read_generator_spec(args.spec)
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    data = generate(spec)
    write_records_csv(args.out, data)
    _write_manifest(
        str(args.out) + ".manifest", "generate", argv,
        {"spec": args.spec}, [args.out],
        {"seed": spec.seed, "num_users": data.num_users, "num_records": data.num_records})
    print(f"wrote {data.num_records} records for {data.num_users} users to {args.out}")
    return EXIT_OK


def cmd_release(args, argv) -> int:
    config = read_mechanism_config(args.config)
    if args.seed is not None:
        config = replace(config, rng_seed=args.seed)
    data = read_records_csv(args.data)
    dims = infer_dimensions(
        [data], num_activities=config.scales.num_activities, num_regions=args.num_regions)
    # the release path never runs with noise disabled; there is no flag to do so
    result = run_release(config, data, dims, test_mode=False)
    write_histogram_csv(args.out, result.released, dims)
    ledger_path = str(args.out) + ".ledger"
    write_ledger(ledger_path, result.ledger)
    _write_manifest(
        str(args.out) + ".manifest", "release", argv,
        {"data": args.data, "config": args.config}, [args.out, ledger_path],
        {"seed": result.seed, "run": manifest_line(result),
         "ledger_total": repr(result.total_epsilon)})
    print(f"released {np.count_nonzero(result.released)} cells to {args.out} "
          f"(epsilon = {result.total_epsilon!r}, suppressed = {result.suppressed_cells})")
    return EXIT_OK


def cmd_eval(args, argv) -> int:
    data = read_records_csv(args.data)
    dims = infer_dimensions(
        [data], num_activities=args.num_activities, num_regions=args.num_regions)
    plan = ScoringPlan.build(ground_truth(data, dims), args.min_devices)
    report = weighted_relative_error(plan, read_histogram_csv(args.released, dims))

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    report_path = out_dir / "report.txt"
    cells_path = out_dir / "cells.csv"
    duration_div = 60.0 if args.duration_unit == "minutes" else 1.0

    lines = [f"min_devices = {args.min_devices}"]
    if not report.has_eligible_cells:
        lines.append("no eligible cells")
    for name in METRIC_NAMES:
        lines.append(
            f"{name}: wre = {report.wre[name]!r}, eligible = {report.eligible[name]}, "
            f"suppressed_eligible = {report.suppressed_eligible[name]}")
    report_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    with open(cells_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["metric", "activity", "region", "direction",
                         "true", "released", "rel_error", "weight", "devices"])
        for cell in report.cells:
            div = duration_div if cell.metric == "duration" else 1.0
            writer.writerow([cell.metric, cell.activity, cell.region, cell.direction,
                             cell.truth / div, cell.released / div, cell.rel_error,
                             cell.weight, cell.devices])

    _write_manifest(
        out_dir / "manifest", "eval", argv,
        {"data": args.data, "released": args.released}, [report_path, cells_path],
        {"min_devices": args.min_devices, "duration_unit": args.duration_unit})
    for line in lines:
        print(line)
    return EXIT_OK


def cmd_sweep(args, argv) -> int:
    if args.unsafe_fit and args.proxy is not None:
        raise ConfigError("--unsafe-fit fits on the evaluation data; do not pass --proxy with it")
    if not args.unsafe_fit and args.proxy is None:
        raise ConfigError("sweep needs --proxy (or the explicit --unsafe-fit)")

    overrides = {}
    if args.config is not None:
        overrides = read_kv_file(args.config)
        known = {"epsilons", "mechanisms", "repeats", "seed", "min_devices",
                 "threshold_tau", "fit_quantile"}
        unknown = set(overrides) - known
        if unknown:
            raise ConfigError(f"{args.config}: unknown keys {sorted(unknown)}")

    def _setting(flag_value, key, default, parse):
        if flag_value is not None:
            return flag_value
        if key in overrides:
            return parse(overrides[key])
        return default

    epsilons = _setting(
        args.epsilons, "epsilons", DEFAULT_EPSILON_GRID,
        lambda raw: tuple(float(tok) for tok in raw.split(",") if tok.strip()))
    mechanisms = _setting(
        args.mechanisms, "mechanisms", DEFAULT_MECHANISMS,
        lambda raw: tuple(tok.strip() for tok in raw.split(",") if tok.strip()))
    repeats = _setting(args.repeats, "repeats", 20, int)
    seed = _setting(args.seed, "seed", 1, int)
    min_devices = _setting(args.min_devices, "min_devices", DEFAULT_MIN_DEVICES, int)
    tau = _setting(args.tau, "threshold_tau", 0.0, float)
    fit_q = _setting(None, "fit_quantile", 0.95, float)
    threads = _resolve_threads(args.threads)

    data = read_records_csv(args.data)
    proxy = data if args.unsafe_fit else read_records_csv(args.proxy)
    dims = infer_dimensions(
        [data, proxy], num_activities=args.num_activities, num_regions=args.num_regions)

    result = sweep(data, proxy, epsilons, mechanisms, repeats, seed, dims,
                   min_devices=min_devices, tau=tau, fit_q=fit_q,
                   test_mode=args.test_mode)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    sweep_path = out_dir / "sweep.csv"
    agg_path = out_dir / "sweep_agg.csv"
    curve_path = out_dir / "curve.dat"
    table_path = out_dir / "metric_table.txt"
    write_sweep_csv(sweep_path, result)
    write_sweep_agg_csv(agg_path, result)
    write_curve_data(curve_path, result)
    table_eps = args.table_epsilon if args.table_epsilon is not None else 2.0
    table_path.write_text(render_metric_table(result, table_eps), encoding="utf-8")

    # fitted configs, so `dpgb release` can be run with proxy-tuned settings
    config_paths = []
    config_eps = min(epsilons, key=lambda e: abs(e - 2.0))
    for kind in mechanisms:
        cfg = result.fitted.config_for(kind, config_eps, tau, seed)
        cfg_path = out_dir / f"fitted_{kind}.cfg"
        write_mechanism_config(cfg_path, cfg)
        config_paths.append(cfg_path)

    inputs = {"data": args.data}
    if not args.unsafe_fit:
        inputs["proxy"] = args.proxy
    if args.config is not None:
        inputs["config"] = args.config
    _write_manifest(
        out_dir / "manifest", "sweep", argv, inputs,
        [sweep_path, agg_path, curve_path, table_path] + config_paths,
        {"seed": seed, "repeats": repeats, "min_devices": min_devices,
         "threshold_tau": repr(tau), "threads": threads,
         "epsilons": ",".join(repr(e) for e in epsilons),
         "mechanisms": ",".join(mechanisms),
         "test_mode": args.test_mode, "unsafe_fit": args.unsafe_fit})
    print(render_metric_table(result, table_eps), end="")
    print(f"wrote sweep outputs to {out_dir}")
    return EXIT_OK


def cmd_report(args, argv) -> int:
    rows, mechanisms, epsilons, repeats = read_sweep_csv(args.sweep)
    if not rows:
        raise ConfigError(f"{args.sweep}: no sweep rows")
    result = SweepResult(rows, mechanisms, epsilons, repeats, min_devices=-1, tau=0.0)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    curve_path = out_dir / "curve.dat"
    table_path = out_dir / "metric_table.txt"
    write_curve_data(curve_path, result)
    table_path.write_text(render_metric_table(result, args.table_epsilon), encoding="utf-8")
    _write_manifest(
        out_dir / "report.manifest", "report", argv, {"sweep": args.sweep},
        [curve_path, table_path], {"table_epsilon": args.table_epsilon})
    print(render_metric_table(result, args.table_epsilon), end="")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="dpgb", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="sample a synthetic dataset from a spec file")
    p_gen.add_argument("--spec", required=True)
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--seed", type=int, default=None, help="override the spec seed")
    p_gen.set_defaults(func=cmd_generate)

    p_rel = sub.add_parser("release", help="run one private release from a mechanism config")
    p_rel.add_argument("--data", required=True)
    p_rel.add_argument("--config", required=True)
    p_rel.add_argument("--out", required=True)
    p_rel.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_rel.add_argument("--num-regions", type=int, default=0, dest="num_regions",
                       help="region universe size (default: inferred from the data)")
    p_rel.set_defaults(func=cmd_release)

    p_eval = sub.add_parser("eval", help="score a released histogram against exact totals")
    p_eval.add_argument("--data", required=True, help="raw records the truth is recomputed from")
    p_eval.add_argument("--released", required=True)
    p_eval.add_argument("--out", required=True, help="output directory")
    p_eval.add_argument("--min-devices", type=int, default=DEFAULT_MIN_DEVICES,
                        dest="min_devices")
    p_eval.add_argument("--num-regions", type=int, default=0, dest="num_regions")
    p_eval.add_argument("--num-activities", type=int, default=0, dest="num_activities")
    p_eval.add_argument("--duration-unit", choices=("seconds", "minutes"),
                        default="seconds", dest="duration_unit",
                        help="display unit for duration diagnostics (storage stays seconds)")
    p_eval.set_defaults(func=cmd_eval)

    p_sweep = sub.add_parser("sweep", help="compare mechanisms across privacy budgets")
    p_sweep.add_argument("--data", required=True)
    p_sweep.add_argument("--proxy", default=None,
                         help="held-out dataset for hyperparameter fitting")
    p_sweep.add_argument("--out", required=True, help="output directory")
    p_sweep.add_argument("--config", default=None, help="optional key-value sweep settings")
    p_sweep.add_argument("--epsilons", type=lambda raw: tuple(
        float(tok) for tok in raw.split(",") if tok.strip()), default=None)
    p_sweep.add_argument("--mechanisms", type=lambda raw: tuple(
        tok.strip() for tok in raw.split(",") if tok.strip()), default=None)
    p_sweep.add_argument("--repeats", type=int, default=None)
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.add_argument("--min-devices", type=int, default=None, dest="min_devices")
    p_sweep.add_argument("--num-regions", type=int, default=0, dest="num_regions")
    p_sweep.add_argument("--num-activities", type=int, default=0, dest="num_activities")
    p_sweep.add_argument("--tau", type=float, default=None)
    p_sweep.add_argument("--threads", type=int, default=None,
                         help="recorded in the manifest (default: DPGB_THREADS or all "
                              "cores); the sweep runs on one thread")
    p_sweep.add_argument("--table-epsilon", type=float, default=None, dest="table_epsilon")
    p_sweep.add_argument("--test-mode", action="store_true", dest="test_mode",
                         help="zero noise, for pipeline debugging only (never a DP release)")
    p_sweep.add_argument("--unsafe-fit", action="store_true", dest="unsafe_fit",
                         help="fit hyperparameters on the evaluation data itself")
    p_sweep.set_defaults(func=cmd_sweep)

    p_rep = sub.add_parser("report", help="re-render table and curve data from a sweep CSV")
    p_rep.add_argument("--sweep", required=True, help="path to sweep.csv")
    p_rep.add_argument("--out", required=True, help="output directory")
    p_rep.add_argument("--table-epsilon", type=float, default=2.0, dest="table_epsilon")
    p_rep.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(argv)
        return args.func(args, argv)
    except BudgetExceededError as exc:
        print(f"privacy budget exceeded: {exc}", file=sys.stderr)
        print(exc.ledger.summary(), file=sys.stderr)
        return EXIT_BUDGET
    except (ConfigError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
