"""Self-test of the benchmark harness: python3 -m pytest -q bench/test_harness.py"""

import math
import sys
from pathlib import Path

import pytest

import run
import spans
import workloads

sys.path.insert(0, str(run.ROOT / "src"))


def test_self_time_of_a_synthetic_nested_call():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 6.0, 10.0])
    tracer = spans.Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap("numerics.trace_norm", lambda: None)

    def body():
        inner()
        inner()

    tracer.wrap("cli.main", body)()
    assert [s[3] for s in tracer.spans] == [None, 0, 0]
    assert spans.self_times(tracer.spans) == [6.0, 2.0, 2.0]
    layers = spans.layer_metrics(tracer)
    assert layers["cli.main.calls"] == 1 and layers["cli.main.self_s"] == 6.0
    assert layers["numerics.trace_norm.calls"] == 2 and layers["numerics.trace_norm.self_s"] == 4.0
    assert layers["numerics.unitary_exp.calls"] == 0


def test_self_time_counts_overlapping_children_once():
    tree = [["a", 0.0, 10.0, None], ["b", 2.0, 5.0, 0], ["c", 4.0, 12.0, 0], ["d", 4.5, 5.0, 2]]
    assert spans.self_times(tree) == [2.0, 3.0, 7.5, 0.5]


def test_instrument_reaches_every_importing_namespace():
    import numpy as np

    from spingauss import channels, measurements, numerics, oscillator

    tracer = spans.Tracer()
    patched, absent = spans.instrument(tracer)
    try:
        assert absent == []
        assert channels.trace_norm is numerics.trace_norm is not numerics.trace_norm.__wrapped__
        assert measurements._coherent_rows is oscillator._coherent_rows
        assert hasattr(measurements._spin_coherent_rows, "__wrapped__")
        assert channels.trace_norm(np.diag([1.0, -1.0])) == 2.0
    finally:
        spans.restore(patched)
    assert not hasattr(channels.trace_norm, "__wrapped__")
    layers = spans.layer_metrics(tracer)
    assert layers["numerics.trace_norm.calls"] == 1
    assert layers["numerics.trace_norm.d3_sum"] == 8.0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_argv(workload):
    first = [inv.argv for inv in workloads.build(workload, 7, "out")]
    assert first == [inv.argv for inv in workloads.build(workload, 7, "out")]
    if workload != "heterodyne":
        assert first != [inv.argv for inv in workloads.build(workload, 8, "out")]


def test_seeded_points_stay_in_the_annulus():
    for seed in range(200):
        pair, single = workloads.seeded_points(seed)
        xs, y = pair.split(",")
        x1, x2, steps = xs.split(":")
        assert steps == "2" and x1 != x2
        for ux, uy in ((float(x1), float(y)), (float(x2), float(y)), single):
            assert 0.2 - 1e-5 <= math.hypot(ux, uy) <= 1.0 + 1e-5


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_sizes_run_end_to_end(workload, monkeypatch):
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    result = run.measure(workload, seed=3, seconds=1, trace=False, sizes="tiny", log=lambda *a: None)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_tiny_traced_run_reports_every_layer_metric(monkeypatch):
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    result = run.measure("blocks", seed=3, seconds=1, trace=True, sizes="tiny", log=lambda *a: None)
    assert result["correct"]
    metrics = result["metrics"]
    assert set(metrics) == set(spans.layer_metric_units())
    assert metrics["numerics.unitary_exp.calls"]["value"] > 0
    assert metrics["measurements.block_density_pair.calls"]["value"] == 0
    assert Path(run.ROOT, run.OUT, "blocks", "spans.jsonl").stat().st_size > 0


def test_benchmark_json_names_what_the_harness_reports():
    import json

    spec = json.loads(Path(run.ROOT, "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.layer_metric_units()
