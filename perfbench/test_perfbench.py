"""Self-test of the benchmark harness.

Pins the reference code to hand-computed values on a four-record dataset,
runs every workload end to end at toy shapes (checks included, a few
seconds each), and keeps BENCHMARK.json in step with the metrics the
harness prints::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layer_trace  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402

TOY_SHAPES = {
    "desk_sweep": run.Shape(users=2_000, regions=10, proxy_users=2_000),
    "prod_release_eval": run.Shape(users=4_000, regions=500, proxy_users=2_000),
    "fleet_release_eval": run.Shape(users=4_000, regions=10, proxy_users=2_000),
}

TOY_CSV = """user_id,region,activity,direction,distance_km,duration_s
b,0,0,0,2.0,100.0
a,1,1,2,3.0,50.0
b,0,0,0,4.0,200.0
a,0,0,0,1.0,10.0
"""

DOM = ref.Domain(num_activities=2, num_regions=2)
SCALES = np.array([[1.0, 2.0, 100.0], [1.0, 1.0, 10.0]])


@pytest.fixture
def toy(tmp_path):
    path = tmp_path / "records.csv"
    path.write_text(TOY_CSV, encoding="utf-8")
    return ref.read_records(path)


def test_records_are_numbered_by_first_appearance(toy):
    assert toy.num_users == 2 and toy.num_records == 4
    assert toy.user.tolist() == [0, 1, 0, 1]          # b first, then a
    assert toy.distance.tolist() == [2.0, 3.0, 4.0, 1.0]


def test_exact_totals_and_device_counts(toy):
    totals, devices = ref.exact_totals(toy, DOM), ref.device_counts(toy, DOM)
    home, away = (0, 0, 0), (1, 1, 2)                  # (activity, region, direction)
    for m, (want_home, want_away) in enumerate([(3.0, 1.0), (7.0, 3.0), (310.0, 50.0)]):
        assert totals[DOM.cell(home[0], m, home[1], home[2])] == want_home
        assert totals[DOM.cell(away[0], m, away[1], away[2])] == want_away
        assert devices[DOM.cell(home[0], m, home[1], home[2])] == 2
        assert devices[DOM.cell(away[0], m, away[1], away[2])] == 1
    assert totals.sum() == 3 + 7 + 310 + 1 + 3 + 50
    assert devices.sum() == 9


def test_scaled_clipped_vectors(toy):
    # b: (2, 6/2, 300/100) -> L1 8; a: (1, 1/2, 10/100) + (1, 3/1, 50/10) -> L1 10.6
    assert ref.user_l1_norms(toy, DOM, SCALES).tolist() == pytest.approx([8.0, 10.6])
    agg = ref.clipped_aggregate(toy, DOM, SCALES, clip=4.0)
    fb, fa = 4.0 / 8.0, 4.0 / 10.6
    assert agg[DOM.cell(0, 0, 0, 0)] == pytest.approx(2 * fb + 1 * fa)
    assert agg[DOM.cell(0, 1, 0, 0)] == pytest.approx(3 * fb + 0.5 * fa)
    assert agg[DOM.cell(0, 2, 0, 0)] == pytest.approx(3 * fb + 0.1 * fa)
    assert agg[DOM.cell(1, 2, 1, 2)] == pytest.approx(5 * fa)
    assert agg.sum() == pytest.approx(8.0)            # both users clipped to 4
    # a clip above every norm leaves the vectors as they are
    assert ref.clipped_aggregate(toy, DOM, SCALES, clip=100.0).sum() == pytest.approx(18.6)


def test_lower_quantile():
    assert ref.lower_quantile([3, 1, 2, 5, 4], 0.5) == 3       # rank ceil(2.5) = 3
    assert ref.lower_quantile([3, 1, 2, 5, 4], 0.95) == 5      # rank ceil(4.75) = 5
    assert ref.lower_quantile(range(1, 21), 0.95) == 19        # rank ceil(19) = 19
    assert ref.lower_quantile([7.5], 0.01) == 7.5


def test_fitted_scales_and_clip(toy):
    # unscaled slice norms  b: (2, 6, 300) in activity 0;
    # a: (1, 1, 10) in activity 0 and (1, 3, 50) in activity 1
    assert ref.fitted_scales(toy, DOM, 0.5).tolist() == [[1.0, 1.0, 10.0], [1.0, 3.0, 50.0]]
    assert ref.fitted_scales(toy, DOM, 0.95).tolist() == [[2.0, 6.0, 300.0], [1.0, 3.0, 50.0]]
    assert ref.fitted_clip(toy, DOM, SCALES, 0.5) == pytest.approx(8.0)
    assert ref.fitted_clip(toy, DOM, SCALES, 0.95) == pytest.approx(10.6)


def test_weighted_relative_error(toy):
    totals, devices = ref.exact_totals(toy, DOM), ref.device_counts(toy, DOM)
    released = np.zeros(DOM.total_cells)
    released[DOM.cell(0, 0, 0, 0)] = 3.3               # error 0.1
    released[DOM.cell(1, 0, 1, 2)] = 0.5               # error 0.5
    released[DOM.cell(0, 1, 0, 0)] = 7.0               # error 0; the away cell is missing: 1
    released[DOM.cell(0, 2, 0, 0)] = 341.0             # error 0.1
    released[DOM.cell(1, 2, 1, 2)] = 45.0              # error 0.1
    # each eligible cell holds all trips of its region, so every weight is 1
    got = ref.weighted_relative_error(totals, devices, released, DOM, min_devices=1)
    assert got["num_trips"] == (pytest.approx(0.3), 2)
    assert got["distance"] == (pytest.approx(0.5), 2)
    assert got["duration"] == (pytest.approx(0.1), 2)
    got = ref.weighted_relative_error(totals, devices, released, DOM, min_devices=2)
    assert got["num_trips"] == (pytest.approx(0.1), 1)
    assert got["distance"] == (0.0, 1)
    got = ref.weighted_relative_error(totals, devices, released, DOM, min_devices=3)
    assert math.isnan(got["num_trips"][0]) and got["num_trips"][1] == 0


def test_histogram_reader(tmp_path):
    path = tmp_path / "released.csv"
    path.write_text("activity,metric,region,direction,value\n"
                    "1,duration,1,2,45.0\n0,num_trips,0,0,3.3\n", encoding="utf-8")
    a, m, r, d, v = ref.read_histogram(path)
    assert (a.tolist(), m.tolist(), r.tolist(), d.tolist(), v.tolist()) == (
        [1, 0], [2, 0], [1, 0], [2, 0], [45.0, 3.3])


def test_layer_metrics_self_time_and_counters(monkeypatch):
    spans = [
        {"name": "outer", "start": 0.0, "end": 10.0, "id": 1, "parent": None,
         "nested": False, "counters": {"rows": 5}},
        {"name": "inner", "start": 1.0, "end": 4.0, "id": 2, "parent": 1,
         "nested": False, "counters": {}},
        {"name": "inner", "start": 3.0, "end": 6.0, "id": 3, "parent": 1,
         "nested": False, "counters": {}},   # overlaps the first (another thread)
    ]
    covered = layer_trace._covered([(1.0, 4.0), (3.0, 6.0)])
    assert covered == 5.0
    monkeypatch.setattr(layer_trace, "PER_LAYER", (
        ("outer.s", "s"), ("outer.self_s", "s"), ("outer.rows", "count"),
        ("inner.calls", "count"), ("inner.ms_per_call", "ms"), ("gone.calls", "count")))
    got = layer_trace.layer_metrics(spans)
    assert got == {"outer.s": 10.0, "outer.self_s": 5.0, "outer.rows": 5,
                   "inner.calls": 2, "inner.ms_per_call": 3000.0, "gone.calls": 0}


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.SHAPES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layer_trace.PER_LAYER)


@pytest.mark.parametrize("workload", list(TOY_SHAPES))
@pytest.mark.parametrize("trace", [False, True])
def test_toy_workload_end_to_end(workload, trace):
    result = run.run(workload, seed=3, seconds=0, trace=trace, shapes=TOY_SHAPES)
    assert result["correct"] and result["failed"] == 0, result
    names = layer_trace.PER_LAYER if trace else run.END_TO_END
    assert list(result["metrics"]) == [name for name, _ in names]
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if trace:
        assert values["cli.cpu_s"] > 0
        if workload == "desk_sweep":
            assert values["mechanisms.finish_release.calls"] == 420
            assert values["evaluation.weighted_relative_error.calls"] == 420
        else:
            assert values["schema.write_histogram_csv.rows"] > 0
            assert values["schema.read_histogram_csv.rows"] == \
                values["schema.write_histogram_csv.rows"]
    else:
        assert all(values[name] > 0 for name, _ in run.END_TO_END)
