"""Tiny runs of every workload emit every named metric with its unit."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

import pytest

from run import ROOT, run
from speed import SpeedSampler
from tiny import tiny_workload
from tracer import Tracer
from workloads import END_TO_END, PER_LAYER, WORKLOADS

# Layers each workload must exercise (> 0) or bypass (== 0) in a traced run.
EXERCISED = {
    "complete_m2": ["engine.drift_rates_calls", "meanfield.rk4_steps", "landscape.metastability_report_self_s",
                    "landscape.critical_points", "output.csv_rows"],
    "complete_m3": ["games.rewards_at_calls", "meanfield.find_limit_s", "landscape.critical_points",
                    "config.load_calls"],
    "network": ["topology.build_calls", "topology.edges", "engine.events", "output.csv_rows"],
}
BYPASSED = {
    "complete_m2": ["topology.build_calls", "meanfield.find_limit_s"],
    "complete_m3": ["topology.build_calls", "engine.drift_rates_calls"],
    "network": ["meanfield.rhs_calls", "landscape.critical_points", "engine.drift_rates_calls"],
}


def test_benchmark_json_matches_code():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in bench["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert bench["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound} for m in END_TO_END
    ]
    assert bench["per_layer"] == [{"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER]


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_emits_every_metric(name, trace, tmp_path):
    """With trace, traced and untraced (speed-sampled) repeats alternate, and
    their artifacts must be byte-identical: neither the tracer nor the speed
    sampler may change the program's output."""
    workload = tiny_workload(WORKLOADS[name], tmp_path)
    result, status = run(workload, seed=5, seconds=0.1, trace=trace, out=tmp_path / "out")
    assert status == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] == 2 * len(workload.steps)
    listed = PER_LAYER if trace else END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m.name: m.unit for m in listed}
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        assert all(values[k] > 0 for k in EXERCISED[name]), values
        assert all(values[k] == 0 for k in BYPASSED[name]), values
        assert 0.0 < values["engine.flip_ratio"] <= 1.0
    else:
        assert all(v > 0 for v in values.values()), values


def test_speed_sampler_samples_both_kernels():
    sampler = SpeedSampler()
    sampler.start()
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < 0.3:
        sum(range(1000))
    mark = sampler.mark()
    sampler.stop()
    assert all(len(s) >= 2 for s in sampler.samples)
    assert sampler.spent_s == pytest.approx(sum(map(sum, sampler.samples)))
    assert 0.0 < sampler.reference() < 0.1
    assert sampler.reference(mark) is not None  # stop() samples each kernel once more


def test_self_times_add_up_to_the_root_span():
    tracer = Tracer()
    leaf = tracer.wrap("leaf", lambda n: sum(range(n)))
    mid = tracer.wrap("mid", lambda: [leaf(20000) for _ in range(5)])
    with tracer.span("root"):
        mid()
        leaf(1000)
    calls = {k: v[0] for k, v in tracer.spans.items()}
    assert calls == {"leaf": 6, "mid": 1, "root": 1}
    total_self = sum(v[2] for v in tracer.spans.values())
    assert total_self == pytest.approx(tracer.spans["root"][1], rel=1e-9)
    assert all(0.0 <= v[2] <= v[1] for v in tracer.spans.values())


def test_checkout_without_program_fails(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "network", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
