"""The observer: structured spans, counters, and sim-time sampling.

:class:`BaseObserver` defines the interface (with no-op default bodies)
that every instrumentation point is annotated with.  Two implementations:

* :class:`NullObserver` — the default everywhere.  Every method is a
  no-op and ``enabled`` is False, which lets instrumented components skip
  their tracing branches entirely; the simulation hot loops dispatch to
  their uninstrumented variants when they see it (zero overhead when
  off).
* :class:`Observer` — records span/instant events into an in-memory
  event list and samples every registered counter on a configurable
  sim-time cadence into a bounded ring buffer.

Counters are *pull*-based: a component registers a callback at
construction time (``register_counter("dram.row_conflicts", fn)``) and
the observer evaluates all callbacks at each sampling point.  The hot
paths therefore pay nothing for counter upkeep — the existing aggregate
statistics objects are the source of truth and the observer merely
snapshots them over time.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.obs.events import InstantEvent, RingBuffer, SpanEvent

#: signature of a counter callback: current sim time -> value.
CounterFn = Callable[[float], float]


class BaseObserver:
    """The observer interface every instrumented layer is typed against.

    Instrumentation points accept ``observer: BaseObserver`` so that both
    the zero-overhead :class:`NullObserver` default and the recording
    :class:`Observer` type-check at every call site.  The default method
    bodies are no-ops; :class:`Observer` overrides the ones that record.

    Attributes:
        enabled: when False, hot loops skip their tracing branches (and
            the engine dispatches to its uninstrumented fast path).
        now: current sim time in ns, maintained by the engine while
            tracing; lets layers without a clock of their own (the
            kernel) stamp events.
    """

    enabled: bool = False
    now: float = 0.0
    # ------------------------------------------------------------ registration
    def register_counter(self, name: str, fn: CounterFn) -> None:
        pass

    # ------------------------------------------------------------ events
    def span(
        self,
        name: str,
        begin: float,
        end: float,
        track: str = "engine",
        tid: int = 0,
        args: dict[str, Any] | None = None,
    ) -> None:
        pass

    def span_begin(
        self,
        name: str,
        ts: float,
        track: str = "engine",
        tid: int = 0,
        args: dict[str, Any] | None = None,
    ) -> None:
        pass

    def span_end(
        self,
        ts: float,
        track: str = "engine",
        tid: int = 0,
        args: dict[str, Any] | None = None,
    ) -> None:
        pass

    def instant(
        self,
        name: str,
        ts: float,
        track: str = "engine",
        tid: int = 0,
        args: dict[str, Any] | None = None,
    ) -> None:
        pass

    def checkpoint(self, label: str = "", now: float = 0.0) -> None:
        """Structural checkpoint (section boundary / explicit sync point).

        The engine calls this between sections while tracing.  A no-op
        for recording observers; the sanitizer's observer overrides it to
        run its full invariant walks at well-defined quiescent points.
        """

    # ------------------------------------------------------------ sampling
    def maybe_sample(self, now: float) -> None:
        pass

    def sample(self, now: float) -> None:
        pass

    def finish(self, now: float) -> None:
        pass


class NullObserver(BaseObserver):
    """Do-nothing observer; safe to call from any layer.

    All instrumentation points accept an observer and default to the
    shared :data:`NULL_OBSERVER` singleton, so observability is strictly
    opt-in and explicitly injected.
    """


#: Shared default instance — the zero-overhead path.
NULL_OBSERVER = NullObserver()


class Observer(BaseObserver):
    """Recording observer.

    Args:
        sample_interval_ns: minimum simulated time between two counter
            samples.  Sampling is driven by the engine's clock, so actual
            sample spacing is ``>= sample_interval_ns`` (samples land on
            access boundaries, not on an independent timer).
        ring_capacity: maximum retained counter samples; older samples
            are evicted (``samples.evicted`` counts them).
        max_events: cap on retained span/instant events; further events
            are dropped and counted in ``dropped_events`` so a runaway
            trace cannot exhaust host memory.
    """

    enabled = True

    def __init__(
        self,
        sample_interval_ns: float = 5000.0,
        ring_capacity: int = 4096,
        max_events: int = 2_000_000,
    ) -> None:
        if sample_interval_ns < 0:
            raise ValueError("sample interval must be >= 0")
        self.sample_interval_ns = float(sample_interval_ns)
        self.events: list[SpanEvent | InstantEvent] = []
        self.samples: RingBuffer = RingBuffer(ring_capacity)
        self.max_events = max_events
        self.dropped_events = 0
        self.now = 0.0
        self._counters: list[tuple[str, CounterFn]] = []
        self._next_sample = 0.0
        # Open-span stacks per (track, tid) lane for span_begin/span_end.
        self._open: dict[tuple[str, int], list[tuple[str, float, dict | None]]] = {}

    # ------------------------------------------------------------ registration
    def register_counter(self, name: str, fn: CounterFn) -> None:
        """Register a named counter/gauge callback (evaluated at samples).

        An observer records one run: every run builds its own, and each
        component of that run registers its counters once.  A name
        registered twice is a ``ValueError``.
        """
        if name in self.counter_names:
            raise ValueError(f"counter {name!r} already registered")
        self._counters.append((name, fn))

    @property
    def counter_names(self) -> list[str]:
        return [name for name, _ in self._counters]

    # ------------------------------------------------------------ events
    def _emit(self, event: SpanEvent | InstantEvent) -> None:
        if len(self.events) >= self.max_events:
            self.dropped_events += 1
            return
        self.events.append(event)

    def span(
        self,
        name: str,
        begin: float,
        end: float,
        track: str = "engine",
        tid: int = 0,
        args: dict[str, Any] | None = None,
    ) -> None:
        """Record a complete span (begin and end both known)."""
        self._emit(SpanEvent(name, begin, end, track, tid, args))

    def span_begin(
        self,
        name: str,
        ts: float,
        track: str = "engine",
        tid: int = 0,
        args: dict[str, Any] | None = None,
    ) -> None:
        """Open a nested span on the (track, tid) lane."""
        self._open.setdefault((track, tid), []).append((name, ts, args))

    def span_end(
        self,
        ts: float,
        track: str = "engine",
        tid: int = 0,
        args: dict[str, Any] | None = None,
    ) -> None:
        """Close the innermost open span on the lane (LIFO nesting)."""
        stack = self._open.get((track, tid))
        if not stack:
            raise ValueError(f"span_end with no open span on {(track, tid)}")
        name, begin, begin_args = stack.pop()
        merged = begin_args
        if args:
            merged = {**(begin_args or {}), **args}
        self._emit(SpanEvent(name, begin, ts, track, tid, merged))

    def instant(
        self,
        name: str,
        ts: float,
        track: str = "engine",
        tid: int = 0,
        args: dict[str, Any] | None = None,
    ) -> None:
        self._emit(InstantEvent(name, ts, track, tid, args))

    def open_spans(self, track: str = "engine", tid: int = 0) -> list[str]:
        """Names of currently open spans on a lane, outermost first."""
        return [name for name, _, _ in self._open.get((track, tid), [])]

    # ------------------------------------------------------------ sampling
    def maybe_sample(self, now: float) -> None:
        """Sample all counters if the cadence interval has elapsed."""
        if now >= self._next_sample:
            self.sample(now)

    def sample(self, now: float) -> None:
        """Unconditionally sample every registered counter at ``now``."""
        row = [fn(now) for _, fn in self._counters]
        self.samples.append((now, row))
        self._next_sample = now + self.sample_interval_ns

    def finish(self, now: float) -> None:
        """End-of-run hook: force a final sample so the last ring entry
        carries the run's closing counter values (rollup-equivalent)."""
        if len(self.samples) and self.samples.last()[0] == now:
            return
        self.sample(now)
