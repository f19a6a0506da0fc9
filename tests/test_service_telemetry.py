"""Acceptance tests for the service metrics plane.

The headline scenario: a chaos-free drain of >= 50 jobs through a
4-shard service on the process executor yields throughput/latency/
cache numbers computed from the histogram registry (not from ad-hoc
timers), including samples recorded inside the forked workers.  The
dashboard renders that registry's snapshot, and ``repro.obs top``
renders the same snapshot from a ``--metrics-out`` file.
"""

import json
import os

import pytest

from repro.experiments.__main__ import main as experiments_main
from repro.obs import metrics as obs_metrics
from repro.obs.__main__ import main as obs_main
from repro.obs.dashboard import (
    _fmt_seconds,
    counter_total,
    merge_named_histograms,
    render_frame,
)
from repro.obs.metrics import MetricsRegistry, find_metric, quantile_from_snapshot
from repro.service.client import ServiceClient
from repro.service.jobs import JobSpec

def _trivial_runner(spec: JobSpec) -> dict:
    """Module-level (fork/pickle-safe) runner: no simulation, just echo."""
    return {"label": spec.label, "rep": spec.rep}


def _metered_runner(spec: JobSpec) -> dict:
    """Like :func:`_trivial_runner`, but counts itself in the ambient
    registry, which in a forked worker is the child's own registry."""
    registry = obs_metrics.active()
    if registry is not None:
        registry.counter("test.worker_runs").inc()
    return _trivial_runner(spec)


def _crashing_runner(spec: JobSpec) -> dict:
    """Die without reporting, like a worker killed mid-attempt."""
    os._exit(13)


def _specs(n: int) -> list[JobSpec]:
    return [
        JobSpec(bench=f"b{i % 13}", policy="buddy", config="cfg",
                rep=i // 13, profile="mini")
        for i in range(n)
    ]


class TestProcessDrain:
    """The acceptance drain: 56 jobs, 4 shards, process executor."""

    @pytest.fixture(scope="class")
    def snapshot(self):
        registry = MetricsRegistry()
        with ServiceClient(store=":memory:", shards=4, executor="process",
                           runner=_metered_runner,
                           metrics=registry) as client:
            handles = client.submit_many(_specs(56))
            for h in handles:
                h.result(timeout=120)
            assert client.drain(timeout=60)
        return registry.snapshot()

    def test_metrics_computed_from_histogram_registry(self, snapshot):
        assert find_metric(snapshot, "counters", "sched.jobs",
                           outcome="completed")["value"] == 56
        # Recorded in the forked children, merged over the result pipe.
        assert find_metric(snapshot, "counters",
                           "test.worker_runs")["value"] == 56
        attempt = merge_named_histograms(snapshot, "sched.attempt_s")
        assert attempt["count"] == 56
        p50 = quantile_from_snapshot(attempt, 0.50)
        p99 = quantile_from_snapshot(attempt, 0.99)
        assert 0 < p50 <= p99
        wait = merge_named_histograms(snapshot, "sched.queue_wait_s")
        assert wait["count"] == 56
        # per-shard labels stayed bounded: one wait histogram per shard
        shards = {h["labels"].get("shard")
                  for h in snapshot["histograms"]
                  if h["name"] == "sched.queue_wait_s"}
        assert shards <= {"0", "1", "2", "3"} and len(shards) >= 2

    def test_dashboard_renders_the_drain(self, snapshot):
        frame = render_frame(snapshot)
        assert "completed=56" in frame
        assert "attempt" in frame and "p99=" in frame


class TestCacheAndDedupOutcomes:
    def test_cache_hits_counted(self):
        registry = MetricsRegistry()
        spec = JobSpec(bench="b", policy="buddy", config="cfg")
        with ServiceClient(store=":memory:", shards=1, executor="inline",
                           runner=_trivial_runner,
                           metrics=registry) as client:
            client.submit(spec).result(timeout=30)
            handle = client.submit(spec)
            assert handle.from_cache
            handle.result(timeout=30)
        snap = registry.snapshot()
        assert find_metric(snap, "counters", "sched.jobs",
                           outcome="cache_hit")["value"] == 1
        assert find_metric(snap, "counters", "sched.jobs",
                           outcome="completed")["value"] == 1

    def test_store_latency_recorded_via_ambient(self):
        spec = JobSpec(bench="b", policy="buddy", config="cfg")
        with obs_metrics.installed(MetricsRegistry()) as registry:
            with ServiceClient(store=":memory:", shards=1, executor="inline",
                               runner=_trivial_runner) as client:
                client.submit(spec).result(timeout=30)
                client.submit(spec).result(timeout=30)
        snap = registry.snapshot()
        assert find_metric(snap, "histograms", "store.get_s",
                           result="hit")["count"] == 1
        assert find_metric(snap, "histograms", "store.get_s",
                           result="miss")["count"] == 1
        assert find_metric(snap, "histograms", "store.put_s")["count"] == 1


class TestFailurePathMetrics:
    def test_retries_and_failed_outcome(self):
        registry = MetricsRegistry()
        with ServiceClient(shards=1, executor="process", runner=_crashing_runner,
                           metrics=registry) as client:
            spec = JobSpec(bench="b", policy="buddy", config="cfg",
                           max_retries=1)
            handle = client.submit(spec)
            handle.wait(60)
        snap = registry.snapshot()
        assert find_metric(snap, "counters", "sched.retries",
                           reason="crash")["value"] == 1
        assert find_metric(snap, "counters", "sched.jobs",
                           outcome="failed")["value"] == 1
        attempts = merge_named_histograms(snap, "sched.attempt_s")
        assert attempts["count"] == 2
        assert find_metric(snap, "histograms", "sched.attempt_s",
                           shard=0, outcome="crash")["count"] == 2


class TestMetricsOff:
    def test_metrics_off_records_nothing(self):
        """With no registry the process path still runs, children get
        no registry of their own, and nothing becomes ambient."""
        assert obs_metrics.active() is None
        with ServiceClient(store=":memory:", shards=2, executor="process",
                           runner=_metered_runner) as client:
            handles = client.submit_many(_specs(4))
            for h in handles:
                h.result(timeout=60)
            assert client.metrics is None
        assert obs_metrics.active() is None


class TestDashboardHelpers:
    def test_counter_total_sums_label_variants(self):
        reg = MetricsRegistry()
        reg.counter("sched.jobs", outcome="completed").inc(3)
        reg.counter("sched.jobs", outcome="cache_hit").inc(2)
        snap = reg.snapshot()
        assert counter_total(snap, "sched.jobs") == 5
        assert counter_total(snap, "sched.jobs", outcome="cache_hit") == 2

    def test_render_frame_empty_snapshot(self):
        frame = render_frame({"counters": [], "gauges": [], "histograms": []})
        assert "no samples" in frame

    def test_render_frame_reports_retries_and_faults(self):
        reg = MetricsRegistry()
        reg.counter("sched.retries", shard="0").inc(2)
        reg.counter("faultline.injections", site="worker.crash").inc(3)
        frame = render_frame(reg.snapshot())
        assert "retries: 2   faults injected: 3" in frame

    @pytest.mark.parametrize("value, text", [
        (None, "    --"), (5e-6, "    5u"), (0.0125, " 12.5m"), (2.5, " 2.50s"),
    ])
    def test_seconds_format_by_magnitude(self, value, text):
        assert _fmt_seconds(value) == text


class TestTopFromMetricsFile:
    """``--metrics-out`` -> ``repro.obs top PATH``, end to end (in this
    process; ``tools/dashboard_smoke.py`` runs ``python -m repro.obs``)."""

    @staticmethod
    def _top(path, capsys) -> tuple[int, str, str]:
        code = obs_main(["top", str(path)])
        out, err = capsys.readouterr()
        return code, out, err

    def test_frame_from_a_tune_run(self, tmp_path, capsys):
        path = tmp_path / "metrics.json"
        assert experiments_main([
            "tune", "--bench", "lbm", "--profile", "mini", "--budget", "4",
            "--executor", "inline", "--out", str(tmp_path / "out"),
            "--metrics-out", str(path),
        ]) == 0
        capsys.readouterr()
        snapshot = json.loads(path.read_text())
        executed = find_metric(snapshot, "counters", "search.jobs",
                               result="executed")["value"]
        assert executed > 0
        code, out, err = self._top(path, capsys)
        assert code == 0, err
        assert f"completed={executed:.0f}" in out
        assert "attempt" in out and "p99=" in out
        assert "queue depth" in out

    #: file name -> content written (None: no file).
    BAD = {
        "metrics.prom": "sched_jobs_total 1\n",
        "missing.json": None,
        "garbled.json": "{",
        "list.json": "[]",
        "short.json": json.dumps({"histograms": [
            {"name": "sched.attempt_s", "count": 3, "sum": 0.3, "zero": 0,
             "min": 0.1, "max": 0.1, "buckets": {}},
        ]}),
    }

    @pytest.mark.parametrize("name", list(BAD))
    def test_bad_path_is_a_one_line_error(self, tmp_path, capsys, name):
        path = tmp_path / name
        if self.BAD[name] is not None:
            path.write_text(self.BAD[name])
        code, out, err = self._top(path, capsys)
        assert code != 0
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("repro.obs top: ")
