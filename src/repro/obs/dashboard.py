"""Terminal dashboard over a saved metrics snapshot.

``python -m repro.obs top PATH`` reads the JSON snapshot an
experiments or tune run wrote with ``--metrics-out PATH`` and renders
one compact service-health frame: job totals and cache hit rate,
attempt-latency quantiles (from the log-linear histograms), and the
final queue/retry state.  Pure stdlib.

:func:`render_frame` is deterministic given its snapshot, so tests
drive it from a registry without touching the filesystem.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs.metrics import quantile_from_snapshot


def merge_named_histograms(snapshot: dict, name: str) -> dict | None:
    """Merge every label variant of histogram ``name`` into one dict.

    Buckets and counts add; min/max widen.  Lets the dashboard show one
    attempt-latency distribution across slots and outcomes.
    """
    merged: dict | None = None
    for h in snapshot.get("histograms", ()):
        if h["name"] != name or h.get("count", 0) == 0:
            continue
        if merged is None:
            merged = {
                "name": name, "labels": {}, "sub": h.get("sub", 16),
                "count": 0, "sum": 0.0, "zero": 0,
                "min": None, "max": None, "buckets": {},
            }
        merged["count"] += h["count"]
        merged["sum"] += h["sum"]
        merged["zero"] += h.get("zero", 0)
        if h.get("min") is not None:
            merged["min"] = (
                h["min"] if merged["min"] is None
                else min(merged["min"], h["min"])
            )
        if h.get("max") is not None:
            merged["max"] = (
                h["max"] if merged["max"] is None
                else max(merged["max"], h["max"])
            )
        for k, v in h.get("buckets", {}).items():
            merged["buckets"][k] = merged["buckets"].get(k, 0) + v
    return merged


def counter_total(snapshot: dict, name: str, **labels) -> float:
    """Sum of every ``name`` counter matching the given label subset."""
    total = 0.0
    for c in snapshot.get("counters", ()):
        if c["name"] != name:
            continue
        have = c.get("labels", {})
        if all(have.get(k) == str(v) for k, v in labels.items()):
            total += c["value"]
    return total


def _fmt_seconds(value: float | None) -> str:
    if value is None:
        return "    --"
    if value < 1e-3:
        return f"{value * 1e6:5.0f}u"
    if value < 1.0:
        return f"{value * 1e3:5.1f}m"
    return f"{value:5.2f}s"


def _latency_line(label: str, hist: dict | None) -> str:
    if hist is None or hist.get("count", 0) == 0:
        return f"  {label:<18} (no samples)"
    p50 = quantile_from_snapshot(hist, 0.50)
    p90 = quantile_from_snapshot(hist, 0.90)
    p99 = quantile_from_snapshot(hist, 0.99)
    mean = hist["sum"] / hist["count"]
    return (f"  {label:<18} n={hist['count']:<7} "
            f"p50={_fmt_seconds(p50)} p90={_fmt_seconds(p90)} "
            f"p99={_fmt_seconds(p99)} mean={_fmt_seconds(mean)}")


def render_frame(snapshot: dict) -> str:
    """Render one dashboard frame from a metrics snapshot (lifetime totals)."""
    lines: list[str] = []

    lines.append("repro service telemetry")
    lines.append("=" * 64)

    # ---- throughput -----------------------------------------------------
    done_total = counter_total(snapshot, "sched.jobs", outcome="completed")
    hits_total = counter_total(snapshot, "sched.jobs", outcome="cache_hit")
    failed_total = counter_total(snapshot, "sched.jobs", outcome="failed")
    submitted = counter_total(snapshot, "sched.submitted")
    lines.append(f"  jobs: submitted={submitted:.0f} completed={done_total:.0f} "
                 f"cache_hit={hits_total:.0f} failed={failed_total:.0f}")
    served = done_total + hits_total
    if served > 0:
        lines.append(f"  cache hit rate: {hits_total / served:.1%} "
                     f"({hits_total:.0f}/{served:.0f} served)")

    # ---- latency --------------------------------------------------------
    lines.append("")
    lines.append("latency (lifetime)")
    lines.append(_latency_line(
        "queue wait", merge_named_histograms(snapshot, "sched.queue_wait_s")))
    lines.append(_latency_line(
        "attempt", merge_named_histograms(snapshot, "sched.attempt_s")))
    lines.append(_latency_line(
        "store get", merge_named_histograms(snapshot, "store.get_s")))

    # ---- final state ----------------------------------------------------
    lines.append("")
    lines.append("final state")
    depth = running = None
    for g in snapshot.get("gauges", ()):
        if g["name"] == "sched.queue_depth":
            depth = g["value"]
        elif g["name"] == "sched.running":
            running = g["value"]
    lines.append(f"  queue depth: {depth if depth is not None else '--'}   "
                 f"running: {running if running is not None else '--'}")
    retries = counter_total(snapshot, "sched.retries")
    faults = counter_total(snapshot, "faultline.injections")
    if retries or faults:
        lines.append(f"  retries: {retries:.0f}   "
                     f"faults injected: {faults:.0f}")
    return "\n".join(lines)


def read_snapshot(path: "str | Path") -> dict:
    """Load a JSON snapshot written by ``--metrics-out``.

    Raises ``ValueError`` with a one-line reason when the file is
    missing, unreadable, Prometheus text, not a snapshot, or has a
    histogram whose buckets do not add up to its count (the quantiles
    read them on that premise).
    """
    path = Path(path)
    if path.suffix == ".prom":
        raise ValueError(
            f"{path} is Prometheus text; rerun with a .json --metrics-out"
        )
    try:
        snapshot = json.loads(path.read_text())
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not JSON: {exc}") from None
    if not isinstance(snapshot, dict):
        raise ValueError(f"{path} is not a metrics snapshot")
    for hist in snapshot.get("histograms", ()):
        if hist.get("zero", 0) + sum(hist.get("buckets", {}).values()) != (
            hist.get("count", 0)
        ):
            raise ValueError(
                f"{path}: histogram {hist.get('name')!r} buckets do not add "
                "up to its count"
            )
    return snapshot
