"""Unit tests for the observer: spans, counters, sampling, ring buffer."""

import pytest

from repro.obs import NULL_OBSERVER, NullObserver, Observer, RingBuffer
from repro.obs.events import InstantEvent, SpanEvent


class TestNullObserver:
    def test_disabled_and_inert(self):
        obs = NullObserver()
        assert not obs.enabled
        # Every instrumentation point must be callable and a no-op.
        obs.register_counter("x", lambda now: 1)
        obs.span("a", 0.0, 1.0)
        obs.span_begin("b", 0.0)
        obs.span_end(1.0)
        obs.instant("c", 0.5)
        obs.maybe_sample(10.0)
        obs.sample(10.0)
        obs.finish(10.0)

    def test_shared_singleton_disabled(self):
        assert NULL_OBSERVER.enabled is False


class TestSpans:
    def test_complete_span(self):
        obs = Observer()
        obs.span("dram.access", 10.0, 25.0, track="dram", tid=2,
                 args={"bank": 7})
        (e,) = obs.events
        assert isinstance(e, SpanEvent)
        assert e.duration == 15.0
        assert (e.track, e.tid) == ("dram", 2)
        assert e.args == {"bank": 7}

    def test_nesting_is_lifo_per_lane(self):
        obs = Observer()
        obs.span_begin("outer", 0.0)
        obs.span_begin("inner", 1.0)
        assert obs.open_spans() == ["outer", "inner"]
        obs.span_end(2.0)
        obs.span_end(5.0)
        inner, outer = obs.events
        assert (inner.name, inner.begin, inner.end) == ("inner", 1.0, 2.0)
        assert (outer.name, outer.begin, outer.end) == ("outer", 0.0, 5.0)
        assert obs.open_spans() == []

    def test_nesting_lanes_are_independent(self):
        obs = Observer()
        obs.span_begin("a", 0.0, track="threads", tid=0)
        obs.span_begin("b", 1.0, track="threads", tid=1)
        obs.span_end(2.0, track="threads", tid=0)
        (e,) = obs.events
        assert e.name == "a"
        assert obs.open_spans(track="threads", tid=1) == ["b"]

    def test_end_without_begin_raises(self):
        obs = Observer()
        with pytest.raises(ValueError):
            obs.span_end(1.0)

    def test_end_merges_args(self):
        obs = Observer()
        obs.span_begin("s", 0.0, args={"kind": "parallel"})
        obs.span_end(4.0, args={"idle": 1.5})
        (e,) = obs.events
        assert e.args == {"kind": "parallel", "idle": 1.5}

    def test_instant(self):
        obs = Observer()
        obs.instant("alloc", 3.0, track="kernel", tid=9)
        (e,) = obs.events
        assert isinstance(e, InstantEvent)
        assert (e.name, e.ts, e.tid) == ("alloc", 3.0, 9)

    def test_event_cap_drops_and_counts(self):
        obs = Observer(max_events=2)
        for i in range(5):
            obs.instant("e", float(i))
        assert len(obs.events) == 2
        assert obs.dropped_events == 3


class TestCounters:
    def test_registration_order_preserved(self):
        obs = Observer()
        obs.register_counter("b", lambda now: 1)
        obs.register_counter("a", lambda now: 2)
        assert obs.counter_names == ["b", "a"]

    def test_duplicate_name_raises(self):
        """An observer records one run, whose components each register
        their counters once; a second registration of a name is a bug."""
        obs = Observer()
        obs.register_counter("x", lambda now: 1)
        with pytest.raises(ValueError, match="'x' already registered"):
            obs.register_counter("x", lambda now: 2)
        assert obs.counter_names == ["x"]

    def test_sampling_cadence(self):
        """maybe_sample only fires once per interval of sim time."""
        obs = Observer(sample_interval_ns=100.0)
        ticks = {"n": 0}

        def counter(now):
            ticks["n"] += 1
            return ticks["n"]

        obs.register_counter("ticks", counter)
        for t in range(0, 1000, 10):  # 100 calls, 10 ns apart
            obs.maybe_sample(float(t))
        times = [ts for ts, _ in obs.samples]
        assert len(times) == 10  # one per 100 ns, not one per call
        spacing = [b - a for a, b in zip(times, times[1:])]
        assert all(s >= 100.0 for s in spacing)

    def test_counters_receive_now(self):
        obs = Observer(sample_interval_ns=0.0)
        obs.register_counter("t", lambda now: now * 2)
        obs.sample(21.0)
        ts, row = obs.samples.last()
        assert (ts, row) == (21.0, [42.0])

    def test_finish_forces_final_sample_once(self):
        obs = Observer(sample_interval_ns=1e9)
        obs.register_counter("c", lambda now: 7)
        obs.maybe_sample(0.0)
        obs.finish(500.0)
        assert [ts for ts, _ in obs.samples] == [0.0, 500.0]
        obs.finish(500.0)  # idempotent at the same timestamp
        assert len(obs.samples) == 2


class TestRingBuffer:
    def test_eviction_keeps_most_recent(self):
        ring = RingBuffer(4)
        for i in range(6):
            ring.append(i)
        assert len(ring) == 4
        assert list(ring) == [2, 3, 4, 5]
        assert ring.evicted == 2
        assert ring.last() == 5

    def test_under_capacity(self):
        ring = RingBuffer(8)
        ring.append("a")
        ring.append("b")
        assert list(ring) == ["a", "b"]
        assert ring.evicted == 0

    def test_empty(self):
        ring = RingBuffer(2)
        assert len(ring) == 0
        assert list(ring) == []
        with pytest.raises(IndexError):
            ring.last()

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError):
            RingBuffer(0)

    def test_sample_eviction_through_observer(self):
        obs = Observer(sample_interval_ns=0.0, ring_capacity=3)
        obs.register_counter("c", lambda now: now)
        for t in range(5):
            obs.sample(float(t))
        times = [ts for ts, _ in obs.samples]
        assert times == [2.0, 3.0, 4.0]
        assert obs.samples.evicted == 2
