"""In-memory span tracer and per-layer self-time accounting.

The benchmark's traced run records one span per call into a layer's
public entry point (see ``probes.py``).  A span has a name, start and
end (``time.perf_counter`` seconds), the id of the span that caused it,
and a job id.  Spans stay in memory while the workload runs and are
written out as JSON lines when the benchmark ends.

A span opened on a thread with no open span of its own (the service
scheduler's shard thread) is parented on the innermost open *anchor*
span (the workload root, the search driver), so work the main thread
waits for is not counted twice.

Self time of a span is its duration minus the part of its interval that
its children cover.  :func:`breakdown` sums self times into the
benchmark's per-layer metrics, with ``unattributed_s`` defined so the
layers sum to the traced wall time exactly.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    """One timed call into a layer."""

    sid: int
    name: str
    start: float
    parent: int | None
    job: str | None
    thread: str
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {
            "id": self.sid, "name": self.name, "start": self.start,
            "end": self.end, "parent": self.parent, "job": self.job,
            "thread": self.thread, **({"attrs": self.attrs} if self.attrs else {}),
        }


class Tracer:
    """Records spans; one open-span stack per thread.

    ``leaf`` spans suppress every span opened beneath them on the same
    thread, so a layer that is measured as a whole (the equivalence
    gate) is not split up by the probes it happens to call.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stacks: dict[int, list[Span | None]] = {}
        self._anchors: list[Span] = []
        self._lock = threading.Lock()
        #: job id given to spans that neither name one nor inherit one.
        self.job: str | None = None

    def _stack(self) -> list[Span | None]:
        ident = threading.get_ident()
        stack = self._stacks.get(ident)
        if stack is None:
            stack = self._stacks.setdefault(ident, [])
        return stack

    def _parent(self, stack: list[Span | None]) -> Span | None:
        if stack:
            return stack[-1]
        return self._anchors[-1] if self._anchors else None

    @contextmanager
    def span(self, name: str, job: str | None = None, leaf: bool = False,
             anchor: bool = False):
        """Time the enclosed block as one span; yields it (or None when
        suppressed by an enclosing leaf span).  An ``anchor`` span
        parents spans that other threads open while it is open."""
        stack = self._stack()
        if stack and stack[-1] is None:
            stack.append(None)
            try:
                yield None
            finally:
                stack.pop()
            return
        parent = self._parent(stack)
        with self._lock:
            sp = Span(
                sid=len(self.spans), name=name, start=time.perf_counter(),
                parent=None if parent is None else parent.sid,
                job=job or (parent.job if parent else None) or self.job,
                thread=threading.current_thread().name,
            )
            self.spans.append(sp)
        stack.append(sp)
        if leaf:
            stack.append(None)
        if anchor:
            self._anchors.append(sp)
        try:
            yield sp
        finally:
            if anchor:
                self._anchors.pop()
            if leaf:
                stack.pop()
            sp.end = time.perf_counter()
            stack.pop()

    def wrap(self, fn, name: str, job_of=None, leaf: bool = False):
        """``fn`` with every call timed as a span named ``name``.

        ``job_of(*args, **kwargs)`` names the job a call belongs to.
        """

        def traced(*args, **kwargs):
            job = job_of(*args, **kwargs) if job_of is not None else None
            with self.span(name, job=job, leaf=leaf):
                return fn(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def write(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for sp in self.spans:
                fh.write(json.dumps(sp.to_json()) + "\n")


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of every span, keyed by span id."""
    children: dict[int, list[tuple[float, float]]] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append((sp.start, sp.end))
    return {
        sp.sid: sp.duration - _covered(children.get(sp.sid, []), sp.start, sp.end)
        for sp in spans
    }


#: Span names that are layers in their own right; their self times sum,
#: together with the engine split below and ``unattributed_s``, to the
#: traced wall time.
SPAN_LAYERS = {
    "kernel.boot": "kernel.boot_s",
    "kernel.fault": "kernel.fault_s",
    "workloads.build": "workloads.build_s",
    "metrics.serialize": "metrics.serialize_s",
    "experiments.equivalence": "experiments.equivalence_s",
    "service.attempt": "service.overhead_s",
    "service.store_get": "service.store_get_s",
    "service.store_put": "service.store_put_s",
    "search.driver": "search.driver_s",
}

#: Layers carved out of ``sim.run`` spans from the engine's own
#: ``engine.kernel_ns`` histograms (deltas recorded as span attrs).
ENGINE_LAYERS = (
    "sim.plan_s", "sim.replay_s", "sim.scalar_replay_self_s",
    "sim.engine_other_s",
)


def breakdown(spans: list[Span], root: str) -> dict[str, float]:
    """Per-layer self times for one traced workload.

    ``root`` names the span that covers the whole timed workload; its
    duration is the traced wall time.  A ``sim.run`` span's self time
    (its duration minus its ``kernel.fault`` children) is split using
    the histogram deltas it carries in ``attrs``: ``decode_s`` (batch
    planning), ``replay_s`` (batched replay) and ``scalar_s`` (scalar
    replay, which contains every demand fault of the run).  The rest of
    the run is the engine's own section loop, ``sim.engine_other_s``.
    """
    selfs = self_times(spans)
    out = {name: 0.0 for name in SPAN_LAYERS.values()}
    out.update({name: 0.0 for name in ENGINE_LAYERS})
    fault_in_run: dict[int, float] = {}
    for sp in spans:
        if sp.name == "kernel.fault" and sp.parent is not None:
            fault_in_run[sp.parent] = fault_in_run.get(sp.parent, 0.0) + sp.duration
    wall = 0.0
    attempt_total = 0.0
    for sp in spans:
        own = selfs[sp.sid]
        if sp.name == root:
            wall += sp.duration
        elif sp.name in SPAN_LAYERS:
            out[SPAN_LAYERS[sp.name]] += own
            if sp.name == "service.attempt":
                attempt_total += sp.duration
        elif sp.name == "sim.run":
            a = sp.attrs
            scalar_self = a.get("scalar_s", 0.0) - fault_in_run.get(sp.sid, 0.0)
            out["sim.plan_s"] += a.get("decode_s", 0.0)
            out["sim.replay_s"] += a.get("replay_s", 0.0)
            out["sim.scalar_replay_self_s"] += scalar_self
            out["sim.engine_other_s"] += (
                own - a.get("decode_s", 0.0) - a.get("replay_s", 0.0)
                - scalar_self
            )
    out["unattributed_s"] = wall - sum(out.values())
    out["trace.wall_s"] = wall
    out["service.attempt_s"] = attempt_total
    return out
