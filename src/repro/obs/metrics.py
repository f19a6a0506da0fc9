"""Labeled metrics: counters, gauges, and log-linear latency histograms.

This is the *aggregation* half of the observability plane (the spans /
instants half lives in :mod:`repro.obs.observer`).  A
:class:`MetricsRegistry` hands out labeled instruments:

* :class:`Counter` — monotonically increasing totals (requests served,
  retries, faults injected).
* :class:`Gauge` — a value that goes both ways (queue depth, running
  jobs).
* :class:`Histogram` — an HDR-style log-linear distribution recorder:
  base-2 octaves split into ``sub`` linear buckets each, so relative
  error is bounded (~``1/sub``) across the full dynamic range while
  storage stays a small sparse dict.  Quantiles (p50/p90/p99) come from
  a cumulative bucket walk clamped to the observed min/max, which makes
  a single-sample histogram report that sample exactly.

Everything snapshots to plain JSON (:meth:`MetricsRegistry.snapshot`)
and *merges* (:meth:`MetricsRegistry.merge`): a forked worker records
into a fresh registry, ships the snapshot back over its result pipe,
and the service client folds it into the service-wide registry — counters
and histogram buckets add, gauges last-write-win.  :func:`write_snapshot`
saves one to disk (what ``--metrics-out`` writes and
``python -m repro.obs top`` renders).

Ambient installation mirrors :mod:`repro.faultline.hooks`: components
that cannot be handed a registry explicitly (the engine replay loop,
the result stores, the faultline hook site) call :func:`active` and do
nothing when it returns None — the production default, costing one
global read per *event* (never per memory access).
"""

from __future__ import annotations

import json
import math
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator

#: Label key/value pairs frozen into an instrument identity.
LabelItems = tuple[tuple[str, str], ...]


def _label_items(labels: dict[str, Any]) -> LabelItems:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically increasing total (per label set)."""

    __slots__ = ("name", "labels", "value", "_lock")

    def __init__(self, name: str, labels: LabelItems) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        with self._lock:
            self.value += amount

    def to_snapshot(self) -> dict:
        return {"name": self.name, "labels": dict(self.labels),
                "value": self.value}


class Gauge:
    """A point-in-time value (queue depth, running jobs, ...)."""

    __slots__ = ("name", "labels", "value", "_lock")

    def __init__(self, name: str, labels: LabelItems) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount

    def to_snapshot(self) -> dict:
        return {"name": self.name, "labels": dict(self.labels),
                "value": self.value}


class Histogram:
    """Log-linear (HDR-style) histogram over non-negative values.

    A value ``v > 0`` lands in the bucket indexed by its base-2 octave
    and a linear subdivision of that octave into ``sub`` slots::

        m, e = math.frexp(v)          # v = m * 2**e,  m in [0.5, 1)
        index = e * sub + int((m - 0.5) * 2 * sub)

    so bucket boundaries are ``2**(e-1) * (1 + s/sub)`` and the relative
    quantization error is bounded by ``1/sub`` at any magnitude.
    Zero/negative observations count in a dedicated ``zero`` bucket.
    Buckets are a sparse dict — an idle histogram costs nothing.
    """

    __slots__ = ("name", "labels", "sub", "count", "sum", "min", "max",
                 "zero", "buckets", "_lock")

    def __init__(self, name: str, labels: LabelItems, sub: int = 16) -> None:
        if sub < 1:
            raise ValueError("sub-bucket count must be >= 1")
        self.name = name
        self.labels = labels
        self.sub = sub
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.zero = 0
        self.buckets: dict[int, int] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------- recording
    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self.count += 1
            self.sum += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value
            if value <= 0.0:
                self.zero += 1
                return
            m, e = math.frexp(value)
            index = e * self.sub + int((m - 0.5) * 2 * self.sub)
            self.buckets[index] = self.buckets.get(index, 0) + 1

    # ------------------------------------------------------------- quantiles
    def quantile(self, q: float) -> float | None:
        """The q-quantile (0..1) from bucket counts, or None when empty.

        Representative values are geometric bucket midpoints clamped to
        the observed [min, max], so extremes are exact.
        """
        with self._lock:
            return _quantile(
                q, self.count, self.zero, self.buckets, self.sub,
                self.min, self.max,
            )

    @property
    def mean(self) -> float | None:
        with self._lock:
            return self.sum / self.count if self.count else None

    def to_snapshot(self) -> dict:
        with self._lock:
            return {
                "name": self.name,
                "labels": dict(self.labels),
                "sub": self.sub,
                "count": self.count,
                "sum": self.sum,
                "min": None if self.count == 0 else self.min,
                "max": None if self.count == 0 else self.max,
                "zero": self.zero,
                # JSON object keys must be strings; merge converts back.
                "buckets": {str(k): v for k, v in self.buckets.items()},
            }


def _quantile(
    q: float, count: int, zero: int, buckets: dict[int, int], sub: int,
    lo: float, hi: float,
) -> float | None:
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    if count == 0:
        return None
    rank = max(1, math.ceil(q * count))
    if rank <= zero:
        return max(0.0, lo)
    # The extreme ranks are the observed extremes exactly — min/max are
    # tracked outside the buckets, so p0/p100 never quantize.
    if rank >= count:
        return hi
    if rank == 1:
        return lo
    # zero + the bucket counts == count > rank, so some bucket holds it.
    seen = zero
    for index in sorted(buckets):
        seen += buckets[index]
        if seen >= rank:
            break
    e, s = divmod(index, sub)
    mid = math.ldexp(1.0 + (s + 0.5) / sub, e - 1)
    return min(max(mid, lo), hi)


def quantile_from_snapshot(hist: dict, q: float) -> float | None:
    """Quantile from a histogram *snapshot* dict (dashboard / bench use)."""
    buckets = {int(k): v for k, v in hist.get("buckets", {}).items()}
    lo = hist.get("min")
    hi = hist.get("max")
    return _quantile(
        q, hist.get("count", 0), hist.get("zero", 0), buckets,
        hist.get("sub", 16),
        -math.inf if lo is None else lo,
        math.inf if hi is None else hi,
    )


class MetricsRegistry:
    """Process-wide home for labeled instruments.

    Instruments are created on first use and identified by
    ``(name, sorted label items)``; repeated calls return the same
    object, so call sites never cache instruments unless they are hot.
    Keep label cardinality *bounded* (slot index, op name, outcome —
    never digests, hostnames, or timestamps): every label combination
    is a live instrument until the process exits.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[tuple[str, LabelItems], Counter] = {}
        self._gauges: dict[tuple[str, LabelItems], Gauge] = {}
        self._histograms: dict[tuple[str, LabelItems], Histogram] = {}

    # ---------------------------------------------------------- instruments
    def counter(self, name: str, **labels: Any) -> Counter:
        key = (name, _label_items(labels))
        with self._lock:
            inst = self._counters.get(key)
            if inst is None:
                inst = self._counters[key] = Counter(name, key[1])
            return inst

    def gauge(self, name: str, **labels: Any) -> Gauge:
        key = (name, _label_items(labels))
        with self._lock:
            inst = self._gauges.get(key)
            if inst is None:
                inst = self._gauges[key] = Gauge(name, key[1])
            return inst

    def histogram(self, name: str, sub: int = 16, **labels: Any) -> Histogram:
        key = (name, _label_items(labels))
        with self._lock:
            inst = self._histograms.get(key)
            if inst is None:
                inst = self._histograms[key] = Histogram(name, key[1], sub)
            return inst

    # ------------------------------------------------------------- snapshot
    def snapshot(self) -> dict:
        """JSON-able snapshot of every instrument (stable order)."""
        with self._lock:
            counters = sorted(self._counters.values(),
                              key=lambda c: (c.name, c.labels))
            gauges = sorted(self._gauges.values(),
                            key=lambda g: (g.name, g.labels))
            hists = sorted(self._histograms.values(),
                           key=lambda h: (h.name, h.labels))
        return {
            "counters": [c.to_snapshot() for c in counters],
            "gauges": [g.to_snapshot() for g in gauges],
            "histograms": [h.to_snapshot() for h in hists],
        }

    def merge(self, snapshot: dict) -> None:
        """Fold a snapshot from another process/registry into this one.

        Counters and histogram buckets *add*; gauges take the incoming
        value (the child's view is newer).  This is how worker-side
        telemetry crosses the fork boundary.
        """
        for c in snapshot.get("counters", ()):
            self.counter(c["name"], **c.get("labels", {})).inc(c["value"])
        for g in snapshot.get("gauges", ()):
            self.gauge(g["name"], **g.get("labels", {})).set(g["value"])
        for h in snapshot.get("histograms", ()):
            hist = self.histogram(
                h["name"], sub=h.get("sub", 16), **h.get("labels", {})
            )
            with hist._lock:
                if h.get("count", 0) == 0:
                    continue
                hist.count += h["count"]
                hist.sum += h["sum"]
                hist.zero += h.get("zero", 0)
                if h["min"] is not None and h["min"] < hist.min:
                    hist.min = h["min"]
                if h["max"] is not None and h["max"] > hist.max:
                    hist.max = h["max"]
                for k, v in h.get("buckets", {}).items():
                    k = int(k)
                    hist.buckets[k] = hist.buckets.get(k, 0) + v


# ------------------------------------------------------------------ lookup
def find_metric(snapshot: dict, kind: str, name: str, **labels) -> dict | None:
    """Look one instrument up in a snapshot (dashboard / test helper)."""
    want = _label_items(labels)
    for m in snapshot.get(kind, ()):
        if m["name"] == name and _label_items(m.get("labels", {})) == want:
            return m
    return None


# ------------------------------------------------------------------ on disk
def write_snapshot(path: "str | Path", snapshot: dict) -> Path:
    """Write ``snapshot`` to ``path`` as the JSON that ``python -m
    repro.obs top`` reads; returns the path written.  Missing parent
    directories are created.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(snapshot, indent=2, sort_keys=True))
    return path


# ------------------------------------------------------------------- ambient
#: The process-ambient registry, or None (the zero-overhead default).
#: Same discipline as faultline's arming point: hot layers do
#: ``reg = active()`` / ``if reg is None: return`` per *event*.
_ACTIVE: MetricsRegistry | None = None


def install(registry: MetricsRegistry | None) -> None:
    """Make ``registry`` the process-ambient metrics sink (None = off)."""
    global _ACTIVE
    _ACTIVE = registry


def uninstall() -> None:
    """Return every ambient call site to its zero-overhead fast path."""
    global _ACTIVE
    _ACTIVE = None


def active() -> MetricsRegistry | None:
    """The ambient registry, or None when metrics are off."""
    return _ACTIVE


@contextmanager
def installed(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Scope an ambient registry; restores the previous one on exit."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = registry
    try:
        yield registry
    finally:
        _ACTIVE = previous
