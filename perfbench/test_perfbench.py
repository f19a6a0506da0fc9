"""Tests for the benchmark's own logic.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run as bench_run  # noqa: E402
from hostspeed import REF_S, Clock  # noqa: E402
from probes import Probes  # noqa: E402
from tracing import Span, Tracer, breakdown, self_times  # noqa: E402
from workloads import WORKLOADS, check_digests, metrics_digest  # noqa: E402


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ------------------------------------------------------------ metric names
def test_emitted_metric_names_match_benchmark_json():
    spec = _spec()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        bench_run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        bench_run.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)


def test_layer_metrics_emit_every_per_layer_name():
    tracer = Tracer()
    with tracer.span("workload", anchor=True):
        pass
    probes = Probes(tracer)
    metrics = bench_run.layer_metrics(tracer, probes, {})
    metrics["trace.overhead_s"] = 0.0
    assert set(metrics) == set(bench_run.PER_LAYER)


# ----------------------------------------------------------------- digests
def _tiny_metrics():
    from repro.sim.metrics import RunMetrics, SectionMetrics, ThreadMetrics

    m = RunMetrics(name="lbm", policy="buddy", nthreads=2, runtime=123.5,
                   parallel_runtime=100.25, serial_runtime=23.25)
    m.threads = [ThreadMetrics(thread=i, core=i) for i in range(2)]
    m.sections = [SectionMetrics(label="c", kind="parallel", start=0.0,
                                 end=100.25, accesses=10)]
    return m


def test_digest_check_accepts_identical_and_rejects_perturbed_record():
    runs = [_tiny_metrics(), _tiny_metrics()]
    labels = ["a", "b"]
    _, expected = check_digests(runs, labels, None)
    assert check_digests(runs, labels, expected)[0] == 0

    perturbed = _tiny_metrics()
    perturbed.threads[1].accesses += 1
    assert metrics_digest(perturbed) != metrics_digest(runs[1])
    assert check_digests([runs[0], perturbed], labels, expected)[0] == 1


def test_digest_check_counts_missing_runs():
    runs = [_tiny_metrics(), _tiny_metrics()]
    _, expected = check_digests(runs, ["a", "b"], None)
    assert check_digests(runs[:1], ["a", "b"], expected)[0] == 1


def test_committed_digests_cover_every_workload():
    doc = json.loads((HERE / "digests.json").read_text())
    assert len(doc["fig11_opteron"]) == 12
    assert len(doc["matrix_disagg"]) == 14
    assert [d["job"] for d in doc["tune_lbm"]] == ["search_log"]


# -------------------------------------------------------------- host speed
def test_clock_scales_each_stretch_by_its_calibration():
    clock = Clock()
    # (before, after) each calibration: 10 ms, then 20 ms, then 10 ms.
    clock.marks = [(0.0, 0.010), (1.010, 1.030), (3.030, 3.040)]
    raw, ref = clock.totals()
    assert raw == pytest.approx(1.0 + 2.0)
    # Stretches ran where the loop took 15 ms on average: 2/3 speed.
    assert ref == pytest.approx(3.0 * REF_S / 0.015)


def test_clock_excludes_calibration_time():
    clock = Clock()
    clock.mark()
    clock.mark()
    raw, ref = clock.totals()
    assert 0.0 <= raw < 0.005 and ref >= 0.0


# -------------------------------------------------------------- self times
def _span(sid, name, start, end, parent=None, **attrs):
    return Span(sid=sid, name=name, start=start, end=end, parent=parent,
                job=None, thread="t", attrs=attrs)


def test_self_time_subtracts_union_of_children():
    spans = [
        _span(0, "workload", 0.0, 10.0),
        _span(1, "kernel.boot", 1.0, 4.0, 0),
        _span(2, "kernel.fault", 2.0, 3.0, 1),
        _span(3, "kernel.fault", 2.5, 3.5, 1),  # overlaps its sibling
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(7.0)
    assert selfs[1] == pytest.approx(1.5)


def test_layers_plus_unattributed_sum_to_traced_wall():
    spans = [
        _span(0, "workload", 0.0, 10.0),
        _span(1, "kernel.boot", 0.5, 1.0, 0),
        _span(2, "workloads.build", 1.0, 1.5, 0),
        _span(3, "sim.run", 1.5, 8.0, 0, decode_s=1.0, replay_s=3.0,
              scalar_s=2.0),
        _span(4, "kernel.fault", 6.0, 6.5, 3),
        _span(5, "metrics.serialize", 8.0, 8.25, 0),
        _span(6, "search.driver", 8.5, 9.5, 0),
        _span(7, "service.attempt", 8.6, 9.0, 6),
    ]
    out = breakdown(spans, "workload")
    assert out["trace.wall_s"] == pytest.approx(10.0)
    assert out["sim.scalar_replay_self_s"] == pytest.approx(1.5)
    assert out["kernel.fault_s"] == pytest.approx(0.5)
    assert out["sim.engine_other_s"] == pytest.approx(6.5 - 0.5 - 1.0 - 3.0 - 1.5)
    assert out["service.attempt_s"] == pytest.approx(0.4)
    layers = [v for k, v in out.items()
              if k not in ("trace.wall_s", "service.attempt_s")]
    assert sum(layers) == pytest.approx(out["trace.wall_s"])
    # Time no span's self time covers: the root's own 1.25 s.
    assert out["unattributed_s"] == pytest.approx(10.0 - 0.5 - 0.5 - 6.5
                                                  - 0.25 - 1.0)


def test_other_thread_spans_parent_on_the_open_anchor():
    tracer = Tracer()

    def attempt():
        with tracer.span("service.attempt"):
            pass

    with tracer.span("workload", anchor=True):
        with tracer.span("search.driver", anchor=True) as driver:
            with tracer.span("service.store_get"):
                worker = threading.Thread(target=attempt)
                worker.start()
                worker.join(timeout=10)
    assert not worker.is_alive()
    attempt = next(s for s in tracer.spans if s.name == "service.attempt")
    assert attempt.parent == driver.sid


def test_leaf_span_suppresses_nested_spans():
    tracer = Tracer()
    with tracer.span("experiments.equivalence", leaf=True):
        with tracer.span("sim.run") as inner:
            assert inner is None
    assert [s.name for s in tracer.spans] == ["experiments.equivalence"]


def test_traced_job_breakdown_sums_to_wall():
    """One real mini-profile job through the probes: the engine split,
    boot, build and fault spans all appear and the layers close."""
    from repro.alloc.policies import Policy
    from repro.experiments.runner import run_benchmark
    from repro.obs import metrics as obs_metrics

    tracer = Tracer()
    registry = obs_metrics.MetricsRegistry()
    with obs_metrics.installed(registry), Probes(tracer, registry) as probes:
        t0 = time.perf_counter()
        with tracer.span("workload", anchor=True):
            run_benchmark("art", Policy.BUDDY, "16_threads_4_nodes",
                          profile="mini").to_json()
        wall = time.perf_counter() - t0
    assert len(probes.runs) == 1
    names = {s.name for s in tracer.spans}
    assert {"kernel.boot", "kernel.fault", "workloads.build", "sim.run",
            "metrics.serialize"} <= names
    out = bench_run.layer_metrics(tracer, probes, {})
    layers = sum(v for k, v in out.items() if k.endswith("_s")
                 and k not in ("trace.wall_s", "service.attempt_s"))
    assert layers == pytest.approx(out["trace.wall_s"], rel=1e-9)
    assert out["trace.wall_s"] <= wall
    assert out["sim.sections_batched"] + out["sim.sections_scalar"] > 0
    # The engine counts demand faults during replay; the probe also sees
    # the ones team creation and program build take.
    assert out["kernel.faults"] >= probes.runs[0].total_faults > 0
