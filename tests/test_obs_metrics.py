"""Unit tests for the labeled metrics plane (repro.obs.metrics)."""

import json
import math

import pytest

from repro.obs import metrics as obs_metrics
from repro.obs.metrics import (
    MetricsRegistry,
    find_metric,
    quantile_from_snapshot,
    render_prometheus,
    write_snapshot,
)


class TestCounters:
    def test_labeled_identity(self):
        reg = MetricsRegistry()
        a = reg.counter("reqs", op="get")
        b = reg.counter("reqs", op="get")
        c = reg.counter("reqs", op="put")
        assert a is b and a is not c
        a.inc()
        a.inc(2.0)
        assert a.value == 3.0 and c.value == 0.0

    def test_label_order_is_irrelevant(self):
        reg = MetricsRegistry()
        assert reg.counter("x", a=1, b=2) is reg.counter("x", b=2, a=1)

    def test_counters_only_go_up(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("x").inc(-1.0)


class TestGauges:
    def test_set_inc_dec(self):
        g = MetricsRegistry().gauge("depth", shard=0)
        g.set(5)
        g.inc()
        g.dec(2.0)
        assert g.value == 4.0


class TestHistogram:
    def test_single_sample_is_exact(self):
        """A one-sample histogram must report that sample at every q."""
        h = MetricsRegistry().histogram("lat")
        h.observe(0.125)
        for q in (0.0, 0.5, 0.99, 1.0):
            assert h.quantile(q) == 0.125
        assert h.mean == 0.125

    def test_empty_quantile_is_none(self):
        h = MetricsRegistry().histogram("lat")
        assert h.quantile(0.5) is None
        assert h.mean is None

    def test_quantile_bounded_relative_error(self):
        """Bucket quantization error is bounded by ~1/sub at any scale."""
        h = MetricsRegistry().histogram("lat", sub=16)
        values = [1e-6 * (1.07 ** i) for i in range(400)]  # spans ~12 octaves
        for v in values:
            h.observe(v)
        values.sort()
        for q in (0.1, 0.5, 0.9, 0.99):
            exact = values[min(len(values) - 1,
                               max(0, math.ceil(q * len(values)) - 1))]
            got = h.quantile(q)
            assert abs(got - exact) / exact < 0.15

    def test_extremes_clamped_to_observed(self):
        h = MetricsRegistry().histogram("lat")
        for v in (0.001, 0.002, 0.93):
            h.observe(v)
        assert h.quantile(1.0) == 0.93
        assert h.quantile(0.0) == 0.001

    def test_zero_and_negative_bucket(self):
        h = MetricsRegistry().histogram("lat")
        h.observe(0.0)
        h.observe(-3.0)
        h.observe(8.0)
        assert h.zero == 2 and h.count == 3
        assert h.quantile(0.5) == 0.0  # zero bucket reports max(0, min)

    def test_invalid_quantile_raises(self):
        h = MetricsRegistry().histogram("lat")
        h.observe(1.0)
        with pytest.raises(ValueError):
            h.quantile(1.5)


class TestSnapshotAndMerge:
    def _loaded(self) -> MetricsRegistry:
        reg = MetricsRegistry()
        reg.counter("jobs", outcome="ok").inc(3)
        reg.gauge("depth").set(7)
        for v in (0.01, 0.02, 0.04):
            reg.histogram("lat", shard=0).observe(v)
        return reg

    def test_snapshot_is_json_roundtrippable(self):
        snap = self._loaded().snapshot()
        assert json.loads(json.dumps(snap)) == snap

    def test_empty_registry_snapshot(self):
        snap = MetricsRegistry().snapshot()
        assert snap == {"counters": [], "gauges": [], "histograms": []}
        assert render_prometheus(snap) == ""

    def test_merge_adds_counters_and_buckets(self):
        a, b = self._loaded(), self._loaded()
        a.merge(b.snapshot())
        snap = a.snapshot()
        assert find_metric(snap, "counters", "jobs", outcome="ok")["value"] == 6
        hist = find_metric(snap, "histograms", "lat", shard=0)
        assert hist["count"] == 6
        assert hist["sum"] == pytest.approx(0.14)
        # gauges last-write-win
        assert find_metric(snap, "gauges", "depth")["value"] == 7

    def test_merge_into_empty_equals_source(self):
        src = self._loaded().snapshot()
        dst = MetricsRegistry()
        dst.merge(src)
        assert dst.snapshot() == src

    def test_merge_skips_empty_histograms_and_misses_are_none(self):
        src = MetricsRegistry()
        src.histogram("idle")  # registered, never observed
        dst = MetricsRegistry()
        dst.merge(src.snapshot())
        snap = dst.snapshot()
        assert find_metric(snap, "histograms", "idle")["count"] == 0
        assert find_metric(snap, "histograms", "idle", shard=1) is None

    def test_quantiles_survive_merge(self):
        """Cross-process p99 must come from merged buckets, not samples."""
        a, b = MetricsRegistry(), MetricsRegistry()
        for v in (0.01,) * 99:
            a.histogram("lat").observe(v)
        b.histogram("lat").observe(10.0)
        a.merge(b.snapshot())
        snap = find_metric(a.snapshot(), "histograms", "lat")
        assert quantile_from_snapshot(snap, 0.5) == pytest.approx(0.01, rel=0.1)
        assert quantile_from_snapshot(snap, 1.0) == 10.0


class TestExposition:
    def test_prometheus_rendering(self):
        reg = MetricsRegistry()
        reg.counter("sched.jobs", outcome="ok").inc(2)
        reg.gauge("sched.queue_depth").set(3)
        reg.histogram("sched.attempt_s").observe(0.5)
        text = render_prometheus(reg.snapshot())
        assert '# TYPE sched_jobs_total counter' in text
        assert 'sched_jobs_total{outcome="ok"} 2' in text
        assert "sched_queue_depth 3" in text
        assert "# TYPE sched_attempt_s histogram" in text
        assert 'sched_attempt_s_bucket{le="+Inf"} 1' in text
        assert "sched_attempt_s_count 1" in text
        # cumulative bucket for the populated upper bound exists
        assert "_bucket{le=" in text

    def test_prometheus_zero_bucket_and_digit_leading_names(self):
        reg = MetricsRegistry()
        reg.counter("9lives").inc()
        reg.histogram("wait_s").observe(0.0)
        text = render_prometheus(reg.snapshot())
        assert "_9lives_total 1" in text
        assert 'wait_s_bucket{le="0"} 1' in text

    def test_prometheus_bucket_cumulative_and_bounded(self):
        reg = MetricsRegistry()
        for v in (0.1, 0.2, 0.4, 0.8):
            reg.histogram("lat").observe(v)
        text = render_prometheus(reg.snapshot())
        counts = [
            int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("lat_bucket")
        ]
        assert counts == sorted(counts)  # cumulative
        assert counts[-1] == 4           # +Inf bucket == count

    def test_write_snapshot_picks_format_by_suffix(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("sched.jobs", outcome="ok").inc(2)
        snap = reg.snapshot()
        prom = write_snapshot(tmp_path / "a" / "m.prom", snap)
        assert prom.read_text() == render_prometheus(snap)
        doc = write_snapshot(tmp_path / "b" / "m.json", snap)
        assert json.loads(doc.read_text()) == snap


class TestAmbient:
    def test_install_uninstall(self):
        assert obs_metrics.active() is None
        reg = MetricsRegistry()
        obs_metrics.install(reg)
        try:
            assert obs_metrics.active() is reg
        finally:
            obs_metrics.uninstall()
        assert obs_metrics.active() is None

    def test_installed_scope_restores_previous(self):
        outer, inner = MetricsRegistry(), MetricsRegistry()
        with obs_metrics.installed(outer):
            with obs_metrics.installed(inner):
                assert obs_metrics.active() is inner
            assert obs_metrics.active() is outer
        assert obs_metrics.active() is None

    def test_store_records_into_ambient_registry(self):
        from repro.service.store import MemoryStore

        store = MemoryStore()
        with obs_metrics.installed(MetricsRegistry()) as reg:
            store.put("d" * 64, {"spec": 1}, {"record": 1})
            assert store.get("d" * 64) is not None
            assert store.get("missing") is None
        snap = reg.snapshot()
        assert find_metric(snap, "counters", "store.ops",
                           op="get", result="hit")["value"] == 1
        assert find_metric(snap, "counters", "store.ops",
                           op="get", result="miss")["value"] == 1
        assert find_metric(snap, "histograms", "store.put_s")["count"] == 1

    def test_engine_records_per_run_metrics(self):
        from repro.alloc.policies import Policy
        from repro.experiments.runner import run_synthetic

        with obs_metrics.installed(MetricsRegistry()) as reg:
            run_synthetic(Policy.BUDDY, "4_threads_4_nodes", profile="mini")
        snap = reg.snapshot()
        runs = find_metric(snap, "counters", "engine.runs")
        accesses = find_metric(snap, "counters", "engine.accesses")
        assert runs["value"] == 1
        assert accesses["value"] > 0
        sections = [h for h in snap["histograms"]
                    if h["name"] == "engine.section_ns"]
        assert sections and all(h["count"] > 0 for h in sections)

    def test_faultline_injections_counted(self):
        from repro.faultline import hooks as fault_hooks
        from repro.faultline.plan import FaultPlan, FaultRule

        plan = FaultPlan(seed=7, rules=(
            FaultRule(site="store.get.io", probability=1.0),
        ))
        with obs_metrics.installed(MetricsRegistry()) as reg:
            with fault_hooks.armed(plan):
                assert fault_hooks.should_fire("store.get.io", "x") is not None
        snap = reg.snapshot()
        hit = find_metric(snap, "counters", "faultline.injections",
                          site="store.get.io")
        assert hit is not None and hit["value"] == 1
