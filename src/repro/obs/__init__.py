"""Observability: zero-overhead-when-off tracing, counters, profiling.

The simulator's hot layers (engine, kernel page allocation, cache
hierarchy, DRAM system) accept an observer object.  The default
:data:`NULL_OBSERVER` disables everything at effectively zero cost; an
:class:`Observer` records structured spans, instant events, and counter
time series that export to one Chrome/Perfetto ``trace_event`` JSON file
per run.

Typical use::

    from repro.obs import Observer, export_run

    obs = Observer(sample_interval_ns=2000.0)
    record = run_synthetic(Policy.MEM_LLC, "8_threads_4_nodes",
                           profile="mini", observer=obs)
    export_run(obs, "traces", "synthetic_mem_llc")   # open .trace.json
                                                     # in ui.perfetto.dev

The metrics registry (:mod:`repro.obs.metrics`) adds the service-side
layer: labeled counters/gauges/log-linear latency histograms in a
:class:`MetricsRegistry`, installed process-ambient and merged across
worker processes.  ``--metrics-out PATH`` on the experiments and tune
CLIs writes its final snapshot as JSON, and ``python -m repro.obs top
PATH`` renders that file as a dashboard frame.
"""

from repro.obs.events import InstantEvent, RingBuffer, SpanEvent
from repro.obs.exporters import export_run, to_perfetto, write_perfetto
from repro.obs.metrics import (
    MetricsRegistry,
    quantile_from_snapshot,
    write_snapshot,
)
from repro.obs.observer import NULL_OBSERVER, BaseObserver, NullObserver, Observer

__all__ = [
    "InstantEvent",
    "RingBuffer",
    "SpanEvent",
    "BaseObserver",
    "NullObserver",
    "Observer",
    "NULL_OBSERVER",
    "MetricsRegistry",
    "quantile_from_snapshot",
    "write_snapshot",
    "to_perfetto",
    "write_perfetto",
    "export_run",
]
