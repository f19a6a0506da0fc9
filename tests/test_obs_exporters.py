"""Unit tests for the Perfetto trace exporter."""

import json

import numpy as np
import pytest

from repro.obs import Observer, export_run, to_perfetto, write_perfetto


def recording_observer() -> Observer:
    obs = Observer(sample_interval_ns=0.0)
    obs.register_counter("dram.row_conflicts", lambda now: int(now) * 2)
    obs.register_counter("cache.llc.misses", lambda now: int(now) * 3)
    obs.span("compute", 0.0, 1000.0, track="engine", args={"kind": "parallel"})
    obs.span("dram.access", 100.0, 180.0, track="dram", tid=1,
             args={"bank": 5, "row": "conflict"})
    obs.instant("kernel.alloc.colored", 150.0, track="kernel", tid=3,
                args={"pfn": 42})
    obs.sample(100.0)
    obs.sample(200.0)
    return obs


class TestPerfetto:
    def test_roundtrips_through_json(self):
        doc = to_perfetto(recording_observer())
        assert json.loads(json.dumps(doc)) == doc

    def test_event_schema(self):
        doc = to_perfetto(recording_observer())
        events = doc["traceEvents"]
        assert doc["displayTimeUnit"] == "ns"
        for e in events:
            assert "ph" in e and "pid" in e and "tid" in e
            if e["ph"] != "M":
                assert "ts" in e
        spans = [e for e in events if e["ph"] == "X"]
        assert {s["name"] for s in spans} == {"compute", "dram.access"}
        # ts/dur are microseconds (trace_event spec); sim time is ns.
        compute = next(s for s in spans if s["name"] == "compute")
        assert compute["ts"] == 0.0 and compute["dur"] == 1.0
        instants = [e for e in events if e["ph"] == "i"]
        assert instants[0]["name"] == "kernel.alloc.colored"

    def test_tracks_become_processes(self):
        doc = to_perfetto(recording_observer())
        meta = {
            e["args"]["name"]: e["pid"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert set(meta) == {"engine", "dram", "kernel", "counters"}
        span = next(e for e in doc["traceEvents"]
                    if e["ph"] == "X" and e["name"] == "dram.access")
        assert span["pid"] == meta["dram"]

    def test_counter_events(self):
        doc = to_perfetto(recording_observer())
        counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
        # 2 samples x 2 counters.
        assert len(counters) == 4
        assert all("value" in c["args"] for c in counters)
        names = {c["name"] for c in counters}
        assert names == {"dram.row_conflicts", "cache.llc.misses"}


class TestCountersCsv:
    """The C events hold the whole counter table: one row per sample and
    one column per registered counter, in registration order."""

    def test_columns_match_registered_counters(self):
        obs = recording_observer()
        counters = [e for e in to_perfetto(obs)["traceEvents"]
                    if e["ph"] == "C"]
        table: dict[float, dict[str, float]] = {}
        for c in counters:
            table.setdefault(c["ts"], {})[c["name"]] = c["args"]["value"]
        assert len(table) == len(obs.samples)
        assert all(list(row) == obs.counter_names for row in table.values())
        # ts in microseconds, oldest sample first.
        assert [[ts, *row.values()] for ts, row in table.items()] == [
            [0.1, 200, 300], [0.2, 400, 600],
        ]


class TestEdgeCases:
    """Empty traces, zero barriers, and numpy scalars must export cleanly."""

    def test_numpy_scalar_args_perfetto(self, tmp_path):
        obs = Observer()
        obs.span("dram.access", 0.0, np.float64(50.0), track="dram",
                 args={"bank": np.int32(3)})
        path = export_run(obs, str(tmp_path), "np_args")
        doc = json.loads(open(path).read())
        span = next(e for e in doc["traceEvents"] if e["ph"] == "X")
        assert span["args"] == {"bank": 3}

    def test_non_serializable_args_still_raise(self, tmp_path):
        obs = Observer()
        obs.instant("bad", 0.0, args={"obj": object()})
        with pytest.raises(TypeError, match="not JSON serializable"):
            write_perfetto(obs, str(tmp_path / "bad.trace.json"))

    def test_empty_trace_export_run(self, tmp_path):
        # A run that recorded nothing (e.g. --trace-out on a zero-event
        # program) must still write a valid, empty trace.
        path = export_run(Observer(), str(tmp_path / "empty"), "run0")
        doc = json.loads(open(path).read())
        assert doc["traceEvents"] == []

    def test_counter_samples_only_trace_not_empty(self):
        # Regression: a trace holding ONLY counter samples (no spans,
        # no instants) must still export a non-empty Perfetto document
        # with the counters process and one "C" event per sample/counter.
        obs = Observer()
        obs.register_counter("service.queue_depth", lambda now: now / 10.0)
        obs.sample(10.0)
        obs.sample(20.0)
        doc = to_perfetto(obs)
        phases = [e["ph"] for e in doc["traceEvents"]]
        assert phases == ["M", "C", "C"]
        meta = doc["traceEvents"][0]
        assert meta["args"]["name"] == "counters"
        values = [e["args"]["value"] for e in doc["traceEvents"][1:]]
        assert values == [1.0, 2.0]

    def test_samples_without_registered_counters_keep_track(self):
        # Sampling before any counter is registered used to export
        # {"traceEvents": []}; the counters track must be claimed
        # whenever samples exist, even if they carry no columns.
        obs = Observer()
        obs.sample(5.0)
        doc = to_perfetto(obs)
        assert doc["traceEvents"], "counter-samples-only trace came out empty"
        assert doc["traceEvents"][0]["ph"] == "M"
        assert doc["traceEvents"][0]["args"]["name"] == "counters"

    def test_zero_barrier_program_export(self, tmp_path):
        # Counters registered but never sampled (no barriers reached):
        # no "C" events, the counters track's metadata row only.
        obs = Observer()
        obs.register_counter("dram.accesses", lambda now: 0)
        path = export_run(obs, str(tmp_path), "zero_barriers")
        doc = json.loads(open(path).read())
        assert [e["ph"] for e in doc["traceEvents"]] == ["M"]


class TestExportRun:
    def test_writes_one_perfetto_file(self, tmp_path):
        obs = recording_observer()
        path = export_run(obs, str(tmp_path / "traces"), "run0")
        assert path == str(tmp_path / "traces" / "run0.trace.json")
        assert [p.name for p in (tmp_path / "traces").iterdir()] == [
            "run0.trace.json"
        ]
        assert json.loads(open(path).read()) == to_perfetto(obs)
