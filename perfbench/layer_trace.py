"""Per-layer tracing of dpgb CLI commands, from outside the package.

Run as a script, this module executes one ``dpgb`` command in its own
process with timers wrapped around the public functions of each layer::

    python3 perfbench/layer_trace.py --spans spans.json -- release --data ... --out ...

Wrapping replaces each function object wherever a ``dpgb`` module refers
to it, so calls through ``from .x import f`` bindings are traced too;
nothing under ``src/`` is edited.  A function that no longer exists is
skipped, and its layer then reports zero calls.  Spans (name, start, end,
thread id, parent span, counters) stay in memory and are written once, when
the command returns.  ``layer_metrics`` folds the spans of several commands
into the per-layer metrics the benchmark reports.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import resource
import sys
import threading
import time
from collections import defaultdict

LAYERS = ("datagen", "schema", "client", "aggregation", "dp_core", "mechanisms",
          "evaluation", "cli")

# (layer module, attribute path) of every wrapped public function; the span
# is named "<layer>.<attribute path>"
WRAPPED = (
    ("datagen", "generate"),
    ("datagen", "ground_truth"),
    ("schema", "write_records_csv"),
    ("schema", "read_records_csv"),
    ("schema", "infer_dimensions"),
    ("schema", "write_histogram_csv"),
    ("schema", "read_histogram_csv"),
    ("schema", "SparseHistogram.from_dense"),
    ("client", "fleet_contributions"),
    ("aggregation", "secure_sum"),
    ("aggregation", "noise_descale_threshold"),
    ("dp_core", "dense_laplace_noise"),
    ("mechanisms", "prepare_activity_metric_scaling"),
    ("mechanisms", "prepare_joint_clipping"),
    ("mechanisms", "prepare_budget_split"),
    ("mechanisms", "finish_release"),
    ("mechanisms", "fit_scales"),
    ("mechanisms", "fit_clip"),
    ("evaluation", "fit_hyperparameters"),
    ("evaluation", "weighted_relative_error"),
    ("evaluation", "sweep"),
)

# work counts taken from a call's arguments and result: fn(args, kwargs, result)
COUNTERS = {
    "datagen.generate": {"records": lambda a, k, r: r.num_records},
    "schema.read_records_csv": {"records": lambda a, k, r: r.num_records},
    "schema.write_histogram_csv": {"rows": lambda a, k, r: len(a[1]),
                                   "bytes": lambda a, k, r: os.path.getsize(a[0])},
    "schema.read_histogram_csv": {"rows": lambda a, k, r: len(r)},
    "schema.SparseHistogram.from_dense": {"cells": lambda a, k, r: len(r)},
    "mechanisms.finish_release": {"cells_noised": lambda a, k, r: a[0].dims.total_cells},
    "evaluation.sweep": {"threads": lambda a, k, r: k.get("threads", 1)},
}

# every per-layer metric, with its unit; "<span>.<key>" where key is s (busy
# seconds), self_s (busy seconds minus time covered by child spans), calls,
# ms_per_call, maxrss_growth_mb or a counter above.  cli.cpu_s and
# trace.overhead_s come from run.py, not from spans.
PER_LAYER = (
    ("datagen.generate.s", "s"),
    ("datagen.generate.calls", "count"),
    ("datagen.generate.records", "count"),
    ("schema.write_records_csv.s", "s"),
    ("schema.read_records_csv.s", "s"),
    ("schema.read_records_csv.calls", "count"),
    ("schema.read_records_csv.records", "count"),
    ("schema.infer_dimensions.s", "s"),
    ("client.fleet_contributions.s", "s"),
    ("client.fleet_contributions.calls", "count"),
    ("aggregation.secure_sum.s", "s"),
    ("aggregation.secure_sum.calls", "count"),
    ("mechanisms.prepare_activity_metric_scaling.s", "s"),
    ("mechanisms.prepare_activity_metric_scaling.self_s", "s"),
    ("mechanisms.prepare_activity_metric_scaling.calls", "count"),
    ("mechanisms.prepare_joint_clipping.s", "s"),
    ("mechanisms.prepare_budget_split.s", "s"),
    ("evaluation.fit_hyperparameters.s", "s"),
    ("evaluation.fit_hyperparameters.self_s", "s"),
    ("mechanisms.fit_scales.s", "s"),
    ("mechanisms.fit_clip.s", "s"),
    ("mechanisms.fit_clip.calls", "count"),
    ("datagen.ground_truth.s", "s"),
    ("datagen.ground_truth.calls", "count"),
    ("mechanisms.finish_release.s", "s"),
    ("mechanisms.finish_release.self_s", "s"),
    ("mechanisms.finish_release.calls", "count"),
    ("mechanisms.finish_release.ms_per_call", "ms"),
    ("mechanisms.finish_release.cells_noised", "count"),
    ("aggregation.noise_descale_threshold.s", "s"),
    ("aggregation.noise_descale_threshold.self_s", "s"),
    ("dp_core.dense_laplace_noise.s", "s"),
    ("schema.SparseHistogram.from_dense.s", "s"),
    ("schema.SparseHistogram.from_dense.calls", "count"),
    ("schema.SparseHistogram.from_dense.cells", "count"),
    ("schema.SparseHistogram.from_dense.maxrss_growth_mb", "MB"),
    ("schema.write_histogram_csv.s", "s"),
    ("schema.write_histogram_csv.rows", "count"),
    ("schema.write_histogram_csv.bytes", "bytes"),
    ("schema.read_histogram_csv.s", "s"),
    ("schema.read_histogram_csv.rows", "count"),
    ("evaluation.weighted_relative_error.s", "s"),
    ("evaluation.weighted_relative_error.calls", "count"),
    ("evaluation.weighted_relative_error.ms_per_call", "ms"),
    ("evaluation.sweep.s", "s"),
    ("evaluation.sweep.self_s", "s"),
    ("evaluation.sweep.threads", "count"),
    ("cli.generate.s", "s"),
    ("cli.sweep.s", "s"),
    ("cli.release.s", "s"),
    ("cli.eval.s", "s"),
    ("cli.cpu_s", "s"),
    ("trace.overhead_s", "s"),
)


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Collects spans from every thread of one process."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stacks: dict[int, list[dict]] = {}
        self._main = threading.get_ident()
        self._next_id = iter(range(1, 1 << 62))

    def start(self, name: str) -> dict:
        tid = threading.get_ident()
        stack = self._stacks.setdefault(tid, [])
        if stack:
            parent = stack[-1]
        else:
            # a worker thread's first span was caused by the span the main
            # thread has open (the sweep that owns the pool)
            main = self._stacks.get(self._main) if tid != self._main else None
            parent = main[-1] if main else None
        span = {
            "name": name, "start": 0.0, "end": 0.0, "thread": tid,
            "id": next(self._next_id), "parent": parent["id"] if parent else None,
            "nested": any(s["name"] == name for s in stack), "counters": {},
            "_rss": _maxrss_mb(),
        }
        stack.append(span)
        span["start"] = time.perf_counter()
        return span

    def end(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        span["counters"]["maxrss_growth_mb"] = _maxrss_mb() - span.pop("_rss")
        self._stacks[span["thread"]].pop()
        self.spans.append(span)

    def wrap(self, name: str, func):
        counters = COUNTERS.get(name, {})

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = self.start(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self.end(span)
            for key, count in counters.items():
                try:
                    span["counters"][key] = count(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, OSError):
                    pass  # the function's signature moved on; the counter reads 0
            return result

        return traced

    def install(self) -> list[str]:
        """Wrap every function in WRAPPED; returns the names it could not find."""
        modules = {layer: importlib.import_module(f"dpgb.{layer}") for layer in LAYERS}
        loaded = [mod for key, mod in sys.modules.items()
                  if mod is not None and (key == "dpgb" or key.startswith("dpgb."))]
        missing = []
        for layer, path in WRAPPED:
            name = f"{layer}.{path}"
            owner_path, _, attr = path.rpartition(".")
            owner = modules[layer]
            try:
                for part in filter(None, owner_path.split(".")):
                    owner = getattr(owner, part)
                raw = vars(owner)[attr]
            except (AttributeError, KeyError):
                missing.append(name)
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                setattr(owner, attr, type(raw)(self.wrap(name, raw.__func__)))
                continue
            traced = self.wrap(name, raw)
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        setattr(mod, key, traced)
            if isinstance(owner, type):
                setattr(owner, attr, traced)
        return missing

    def dump(self, path, extra: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"pid": os.getpid(), **extra, "spans": self.spans}, fh)


def merge_spans(files) -> list[dict]:
    """Spans of several traced commands, with ids unique across processes."""
    merged = []
    for path in files:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        pid = doc["pid"]
        for span in doc["spans"]:
            span["id"] = f"{pid}.{span['id']}"
            if span["parent"] is not None:
                span["parent"] = f"{pid}.{span['parent']}"
            span["command"] = doc["command"]
            merged.append(span)
    return merged


def _covered(intervals) -> float:
    total, reach = 0.0, -float("inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def layer_metrics(spans) -> dict[str, float]:
    """Every span-derived metric of PER_LAYER; absent layers read 0."""
    children = defaultdict(list)
    for span in spans:
        children[span["parent"]].append(span)
    busy = defaultdict(float)
    own = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(float)
    for span in spans:
        if span["nested"]:
            continue
        name = span["name"]
        duration = span["end"] - span["start"]
        busy[name] += duration
        own[name] += duration - _covered(
            (max(c["start"], span["start"]), min(c["end"], span["end"]))
            for c in children[span["id"]])
        calls[name] += 1
        for key, value in span["counters"].items():
            counts[f"{name}.{key}"] += value
    out = {}
    for metric, _ in PER_LAYER:
        name, _, key = metric.rpartition(".")
        if key == "s":
            out[metric] = busy[name]
        elif key == "self_s":
            out[metric] = own[name]
        elif key == "calls":
            out[metric] = calls[name]
        elif key == "ms_per_call":
            out[metric] = 1000.0 * busy[name] / calls[name] if calls[name] else 0.0
        elif name in ("cli", "trace"):
            continue  # filled in by run.py
        else:
            out[metric] = counts[metric]
    return out


def main(argv) -> int:
    if len(argv) < 4 or argv[0] != "--spans" or argv[2] != "--":
        print("usage: layer_trace.py --spans OUT.json -- <dpgb command and flags>", file=sys.stderr)
        return 2
    spans_path, args = argv[1], argv[3:]
    tracer = Tracer()
    missing = tracer.install()
    from dpgb import cli

    span = tracer.start(f"cli.{args[0]}")
    try:
        code = cli.main(args)
    finally:
        tracer.end(span)
        tracer.dump(spans_path, {"command": args[0], "missing": missing})
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
