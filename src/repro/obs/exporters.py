"""Trace exporter: Chrome/Perfetto ``trace_event`` JSON.

The ``trace_event`` schema is understood by ``chrome://tracing`` and
https://ui.perfetto.dev: complete spans become ``"X"`` events, instants
``"i"`` and counter samples ``"C"`` (one per sample and counter).
Timestamps are microseconds per the spec; simulated nanoseconds divide
by 1000.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs.events import SpanEvent
from repro.obs.observer import Observer

#: trace_event timestamps are expressed in microseconds.
_NS_PER_US = 1000.0


def _json_default(value):
    """Coerce non-JSON scalars (numpy ints/floats/bools) via ``.item()``.

    Event args come straight from hot simulator state, which is numpy
    almost everywhere — ``json.dumps`` must not crash the export on an
    ``np.int16`` page count.
    """
    item = getattr(value, "item", None)
    if item is not None:
        return item()
    raise TypeError(
        f"Object of type {type(value).__name__} is not JSON serializable"
    )


# ------------------------------------------------------------------- Perfetto
def _track_pids(obs: Observer) -> dict[str, int]:
    """Stable track -> pid assignment in first-appearance order.

    The counters track is claimed whenever the trace holds counter
    *samples*, not only when counters are registered at export time —
    a counter-samples-only trace (no spans, no instants) must still
    produce a non-empty Perfetto document.
    """
    pids: dict[str, int] = {}
    for event in obs.events:
        if event.track not in pids:
            pids[event.track] = len(pids) + 1
    if obs.counter_names or len(obs.samples):
        pids.setdefault("counters", len(pids) + 1)
    return pids


def to_perfetto(obs: Observer) -> dict:
    """Build a ``chrome://tracing``-loadable trace_event document."""
    pids = _track_pids(obs)
    trace_events: list[dict] = [
        {
            "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
            "args": {"name": track},
        }
        for track, pid in pids.items()
    ]
    for event in obs.events:
        pid = pids[event.track]
        if isinstance(event, SpanEvent):
            record = {
                "ph": "X",
                "name": event.name,
                "cat": event.track,
                "ts": event.begin / _NS_PER_US,
                "dur": event.duration / _NS_PER_US,
                "pid": pid,
                "tid": event.tid,
            }
        else:
            record = {
                "ph": "i",
                "s": "t",  # thread-scoped instant
                "name": event.name,
                "cat": event.track,
                "ts": event.ts / _NS_PER_US,
                "pid": pid,
                "tid": event.tid,
            }
        if event.args:
            record["args"] = event.args
        trace_events.append(record)
    counter_pid = pids.get("counters")
    if counter_pid is not None:
        names = obs.counter_names
        for ts, row in obs.samples:
            for name, value in zip(names, row):
                trace_events.append({
                    "ph": "C",
                    "name": name,
                    "ts": ts / _NS_PER_US,
                    "pid": counter_pid,
                    "tid": 0,
                    "args": {"value": value},
                })
    return {"traceEvents": trace_events, "displayTimeUnit": "ns"}


def write_perfetto(obs: Observer, path: str) -> None:
    Path(path).write_text(json.dumps(to_perfetto(obs), default=_json_default))


# ------------------------------------------------------------------ run export
def export_run(obs: Observer, directory: str, stem: str) -> str:
    """Write one run's Perfetto trace; returns its path.

    Produces ``<stem>.trace.json`` under ``directory`` (created if
    needed).
    """
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    path = str(out / f"{stem}.trace.json")
    write_perfetto(obs, path)
    return path
