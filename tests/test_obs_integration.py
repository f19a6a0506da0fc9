"""End-to-end observability: a traced synthetic run (acceptance tests).

Covers the PR's acceptance criteria: the Perfetto export of a full
synthetic run is schema-valid trace_event JSON, and its row-conflict /
remote-access counter timelines (the ``"C"`` events) agree with the
RunMetrics rollups to within 1%.  Also checks determinism: identical seeds yield identical
traces.
"""

import json

import pytest

from repro.alloc.policies import Policy
from repro.experiments.runner import run_synthetic
from repro.obs import Observer, to_perfetto
from repro.obs.events import SpanEvent
from repro.workloads.synthetic import SyntheticSpec

#: BPM colors banks but ignores the controller, so the run has both row
#: conflicts and a large remote-access fraction — exercising both
#: timelines the acceptance criteria compare against rollups.
POLICY = Policy.BPM
SPEC = SyntheticSpec(per_thread_bytes=64 * 1024)


def traced_run(policy=POLICY):
    obs = Observer(sample_interval_ns=2000.0, ring_capacity=65536)
    record = run_synthetic(
        policy, "8_threads_4_nodes", profile="mini", spec=SPEC, observer=obs
    )
    return obs, record


@pytest.fixture(scope="module")
def traced():
    return traced_run()


class TestEventCapture:
    def test_all_layers_emit(self, traced):
        obs, record = traced
        tracks = {e.track for e in obs.events}
        assert {"engine", "threads", "dram", "kernel"} <= tracks
        names = {e.name for e in obs.events}
        assert "dram.access" in names          # DRAM transactions
        assert "fault" in names                # page-fault service
        assert "barrier.wait" in names         # barrier idle
        assert "kernel.alloc.colored" in names  # colored allocations

    def test_dram_span_count_matches_rollup(self, traced):
        obs, record = traced
        dram_spans = [
            e for e in obs.events
            if isinstance(e, SpanEvent) and e.name == "dram.access"
        ]
        assert len(dram_spans) == record.dram_accesses
        remote_spans = sum(1 for e in dram_spans if e.args["hops"] > 0)
        assert remote_spans == round(
            record.remote_fraction * record.dram_accesses
        )

    def test_fault_spans_match_fault_rollup(self, traced):
        obs, record = traced
        faults = [e for e in obs.events if e.name == "fault"]
        assert len(faults) == record.faults

    def test_section_spans_cover_runtime(self, traced):
        obs, record = traced
        sections = [
            e for e in obs.events
            if isinstance(e, SpanEvent) and e.track == "engine"
        ]
        assert sections
        assert max(e.end for e in sections) == pytest.approx(record.runtime)
        assert obs.open_spans(track="engine") == []


class TestPerfettoSchema:
    def test_loadable_and_schema_valid(self, traced):
        obs, _ = traced
        doc = json.loads(json.dumps(to_perfetto(obs)))
        events = doc["traceEvents"]
        assert events
        for e in events:
            assert isinstance(e["ph"], str) and e["ph"] in "XiCM"
            assert isinstance(e["pid"], int)
            assert isinstance(e["tid"], int)
            if e["ph"] != "M":
                assert isinstance(e["ts"], (int, float))
                assert e["ts"] >= 0
            if e["ph"] == "X":
                assert e["dur"] >= 0


class TestCounterTimelines:
    @pytest.fixture(scope="class")
    def counter_events(self, traced):
        obs, _ = traced
        events = [e for e in to_perfetto(obs)["traceEvents"] if e["ph"] == "C"]
        # One "C" event per (sample, counter).
        assert len(events) == len(obs.samples) * len(obs.counter_names)
        return events

    def _timeline(self, counter_events, name):
        return [float(e["args"]["value"]) for e in counter_events
                if e["name"] == name]

    def _timeline_total(self, series):
        """First value plus the per-interval deltas — the 'timeline sum'."""
        return series[0] + sum(
            b - a for a, b in zip(series, series[1:])
        )

    def test_row_conflict_timeline_matches_rollup(self, traced, counter_events):
        obs, record = traced
        assert obs.samples.evicted == 0  # full timeline retained
        series = self._timeline(counter_events, "dram.row_conflicts")
        total = self._timeline_total(series)
        assert record.row_conflicts > 0
        assert total == pytest.approx(record.row_conflicts, rel=0.01)

    def test_remote_access_timeline_matches_rollup(self, traced, counter_events):
        _, record = traced
        series = self._timeline(counter_events, "dram.remote_accesses")
        total = self._timeline_total(series)
        remote_rollup = record.remote_fraction * record.dram_accesses
        assert remote_rollup > 0
        assert total == pytest.approx(remote_rollup, rel=0.01)

    def test_monotonic_counters(self, counter_events):
        for name in ("dram.accesses", "cache.llc.misses",
                     "kernel.colored_allocs"):
            series = self._timeline(counter_events, name)
            assert all(b >= a for a, b in zip(series, series[1:]))

    def test_final_sample_at_run_end(self, traced):
        obs, record = traced
        ts, _ = obs.samples.last()
        assert ts == pytest.approx(record.runtime)


class TestDeterminism:
    def test_same_seed_same_trace(self):
        """EXPERIMENTS.md claim: traces are reproducible given the seed."""
        obs_a, rec_a = traced_run()
        obs_b, rec_b = traced_run()
        assert rec_a.runtime == rec_b.runtime
        assert to_perfetto(obs_a) == to_perfetto(obs_b)
        assert list(obs_a.samples) == list(obs_b.samples)


class TestDisabledPath:
    def test_default_runs_untraced(self):
        record = run_synthetic(
            POLICY, "8_threads_4_nodes", profile="mini", spec=SPEC
        )
        traced_record = traced_run()[1]
        # The observer must not perturb the simulation itself.
        assert record.runtime == traced_record.runtime
        assert record.row_conflicts == traced_record.row_conflicts
