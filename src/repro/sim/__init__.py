"""Deterministic multi-thread execution engine.

Threads replay memory traces against the shared cache/DRAM state.  The
engine always advances the thread with the smallest clock, so contention
interleavings are reproducible; parallel sections end with an implicit
barrier where per-thread idle time is measured exactly as the paper's
Algorithm 3 does.
"""

from repro.sim.barrier import Program, Section
from repro.sim.engine import Engine, MemorySystem
from repro.sim.metrics import RunMetrics, SectionMetrics, ThreadMetrics
from repro.sim.trace import Trace

__all__ = [
    "Program",
    "Section",
    "Engine",
    "MemorySystem",
    "RunMetrics",
    "SectionMetrics",
    "ThreadMetrics",
    "Trace",
]
