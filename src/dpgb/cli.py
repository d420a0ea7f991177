"""Command-line driver: generate, release, eval, sweep.

Every command is a pure function of its input files, flags, and seeds; no
wall clock, locale, or filesystem-order dependence enters the outputs, and
each command writes a key=value manifest so a run can be reproduced
bit-for-bit.  Exit codes are stable API: 0 success, 1 configuration error,
2 I/O error, 3 privacy-budget violation.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .datagen import generate_csv, ground_truth, read_generator_spec
from .dp_core import BudgetExceededError
from .evaluation import (
    DEFAULT_EPSILON_GRID,
    DEFAULT_MECHANISMS,
    DEFAULT_MIN_DEVICES,
    METRIC_NAMES,
    ScoringPlan,
    check_sweep_settings,
    render_metric_table,
    sweep,
    weighted_relative_error,
    write_sweep_agg_csv,
    write_sweep_csv,
)
from .mechanisms import finish_release, manifest_line, prepare_release
from .schema import (
    ConfigError,
    Dimensions,
    _float_texts,
    read_histogram_csv,
    read_mechanism_config,
    read_records_csv,
    write_histogram_csv,
    write_mechanism_config,
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
    # streamed, so hashing an input never holds the whole file in memory
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(path, command: str, argv, inputs: dict, outputs, extra: dict,
                    digests: dict | None = None) -> None:
    """``digests`` holds the sha256 of any input already hashed, by name."""
    lines = [f"command = {command}", f"version = dpgb {__version__}",
             f"argv = {' '.join(argv)}"]
    for name, in_path in inputs.items():
        lines.append(f"input_{name} = {in_path}")
        lines.append(f"input_{name}_sha256 = {(digests or {}).get(name) or _sha256(in_path)}")
    for out_path in outputs:
        lines.append(f"output = {out_path}")
    for key, value in extra.items():
        lines.append(f"{key} = {value}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def cmd_generate(args, argv) -> int:
    spec = read_generator_spec(args.spec)
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    num_records = generate_csv(args.out, spec)
    _write_manifest(
        str(args.out) + ".manifest", "generate", argv,
        {"spec": args.spec}, [args.out],
        {"seed": spec.seed, "num_users": spec.num_users, "num_records": num_records})
    print(f"wrote {num_records} records for {spec.num_users} users to {args.out}")
    return EXIT_OK


def cmd_release(args, argv) -> int:
    config = read_mechanism_config(args.config)
    if args.seed is not None:
        config = replace(config, rng_seed=args.seed)
    # the domain comes from the config and the flag, never from the records
    dims = Dimensions(config.scales.num_activities, args.num_regions)
    data = read_records_csv(args.data)
    # the release noises its aggregate in place: the run holds one
    # domain-sized vector
    result = finish_release(
        prepare_release(config, data, dims),
        config.epsilon, config.threshold_tau, config.rng_seed, in_place=True)
    write_histogram_csv(args.out, result.released, dims)
    ledger_path = str(args.out) + ".ledger"
    # one label,epsilon line per charge plus the total
    Path(ledger_path).write_text(result.ledger.summary() + "\n", encoding="utf-8")
    _write_manifest(
        str(args.out) + ".manifest", "release", argv,
        {"data": args.data, "config": args.config}, [args.out, ledger_path],
        {"seed": config.rng_seed, "run": manifest_line(result),
         "ledger_total": repr(result.ledger.total())})
    print(f"released {np.count_nonzero(result.released)} cells to {args.out} "
          f"(epsilon = {result.ledger.total()!r}, suppressed = {result.suppressed_cells})")
    return EXIT_OK


def cmd_eval(args, argv) -> int:
    if args.min_devices < 0:
        raise ConfigError(f"min_devices must be >= 0, got {args.min_devices}")
    dims = Dimensions(args.num_activities, args.num_regions)
    data = read_records_csv(args.data)
    plan = ScoringPlan.build(ground_truth(data, dims), args.min_devices)
    report = weighted_relative_error(plan, read_histogram_csv(args.released, dims))

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    report_path = out_dir / "report.txt"
    cells_path = out_dir / "cells.csv"

    lines = [f"min_devices = {args.min_devices}"]
    if not report.has_eligible_cells:
        lines.append("no eligible cells")
    for name in METRIC_NAMES:
        lines.append(
            f"{name}: wre = {report.wre[name]!r}, eligible = {report.eligible[name]}, "
            f"suppressed_eligible = {report.suppressed_eligible[name]}")
    report_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    # one row per eligible cell, metric by metric in truth order, with the
    # bytes csv.writer gives: floats as repr, rows ended by \r\n
    regions = dims.num_regions
    with open(cells_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("metric,activity,region,direction,true,released,rel_error,weight,devices\r\n")
        for m, name in enumerate(METRIC_NAMES):
            flat = plan.flat[m]
            columns = [col.tolist() for col in (flat // (regions * 9), flat // 3 % regions,
                                                 flat % 3)]
            columns += [_float_texts(col) for col in (plan.truth[m], report.estimates[m],
                                                       report.errors[m], plan.weights[m])]
            columns.append(plan.devices[m].tolist())
            fh.write("".join(
                f"{name},{a},{r},{d},{t},{e},{err},{w},{n}\r\n"
                for a, r, d, t, e, err, w, n in zip(*columns)))

    _write_manifest(
        out_dir / "manifest", "eval", argv,
        {"data": args.data, "released": args.released}, [report_path, cells_path],
        {"min_devices": args.min_devices})
    for line in lines:
        print(line)
    return EXIT_OK


def cmd_sweep(args, argv) -> int:
    check_sweep_settings(args.epsilons, args.mechanisms, args.repeats, args.seed, args.tau,
                         args.min_devices)
    dims = Dimensions(args.num_activities, args.num_regions)

    # each input is hashed once; --data is hashed and read before --proxy is
    # opened, so an error in --data is the one reported
    digests = {"data": _sha256(args.data)}
    data = read_records_csv(args.data)
    digests["proxy"] = _sha256(args.proxy)
    # fitting on the scored records themselves is unsafe, from the same
    # path or from a copy: the manifest says so
    unsafe_fit = digests["proxy"] == digests["data"]
    proxy = data if unsafe_fit else read_records_csv(args.proxy)  # equal bytes, parsed once

    result = sweep(data, proxy, args.epsilons, args.mechanisms, args.repeats, args.seed, dims,
                   min_devices=args.min_devices, tau=args.tau)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    sweep_path = out_dir / "sweep.csv"
    agg_path = out_dir / "sweep_agg.csv"
    table_path = out_dir / "metric_table.txt"
    write_sweep_csv(sweep_path, result)
    write_sweep_agg_csv(agg_path, result)
    table_path.write_text(render_metric_table(result), encoding="utf-8")

    # fitted configs, so `dpgb release` can be run with proxy-tuned settings
    config_paths = []
    for kind in result.mechanisms:
        cfg = result.fitted.config_for(kind, result.operating_epsilon, args.tau, args.seed)
        cfg_path = out_dir / f"fitted_{kind}.cfg"
        write_mechanism_config(cfg_path, cfg)
        config_paths.append(cfg_path)

    _write_manifest(
        out_dir / "manifest", "sweep", argv, {"data": args.data, "proxy": args.proxy},
        [sweep_path, agg_path, table_path] + config_paths,
        {"seed": args.seed, "repeats": args.repeats, "min_devices": args.min_devices,
         "threshold_tau": repr(args.tau),
         "epsilons": ",".join(repr(e) for e in result.epsilons),
         "mechanisms": ",".join(result.mechanisms),
         "unsafe_fit": unsafe_fit}, digests)
    print(render_metric_table(result), end="")
    print(f"wrote sweep outputs to {out_dir}")
    return EXIT_OK


def _domain_flags(parser) -> None:
    # the scored domain comes from these flags, never from the records
    parser.add_argument("--num-activities", type=int, required=True, dest="num_activities")
    parser.add_argument("--num-regions", type=int, required=True, dest="num_regions")


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
    p_rel.add_argument("--num-regions", type=int, required=True, dest="num_regions",
                       help="region universe size; the release domain never comes from the data")
    p_rel.set_defaults(func=cmd_release)

    p_eval = sub.add_parser("eval", help="score a released histogram against exact totals")
    p_eval.add_argument("--data", required=True, help="raw records the truth is recomputed from")
    p_eval.add_argument("--released", required=True)
    p_eval.add_argument("--out", required=True, help="output directory")
    p_eval.add_argument("--min-devices", type=int, default=DEFAULT_MIN_DEVICES,
                        dest="min_devices")
    _domain_flags(p_eval)
    p_eval.set_defaults(func=cmd_eval)

    p_sweep = sub.add_parser("sweep", help="compare mechanisms across privacy budgets")
    p_sweep.add_argument("--data", required=True)
    p_sweep.add_argument("--proxy", required=True,
                         help="held-out dataset for hyperparameter fitting")
    p_sweep.add_argument("--out", required=True, help="output directory")
    p_sweep.add_argument("--epsilons", type=lambda raw: tuple(
        float(tok) for tok in raw.split(",") if tok.strip()), default=DEFAULT_EPSILON_GRID)
    p_sweep.add_argument("--mechanisms", type=lambda raw: tuple(
        tok.strip() for tok in raw.split(",") if tok.strip()), default=DEFAULT_MECHANISMS)
    p_sweep.add_argument("--repeats", type=int, default=20)
    p_sweep.add_argument("--seed", type=int, default=1)
    p_sweep.add_argument("--min-devices", type=int, default=DEFAULT_MIN_DEVICES,
                         dest="min_devices")
    _domain_flags(p_sweep)
    p_sweep.add_argument("--tau", type=float, default=0.0)
    p_sweep.set_defaults(func=cmd_sweep)

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
