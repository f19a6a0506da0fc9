"""Run metrics: the four quantities the paper reports.

* benchmark runtime (Fig. 11)
* total idle time across threads (Fig. 12)
* per-thread runtime in parallel sections (Fig. 13)
* per-thread idle time at barriers (Fig. 14)

plus cache/DRAM counter roll-ups used for analysis and ablations.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from repro.cache.stats import CacheLevelStats
from repro.dram.system import DramStats

#: Version of the serialized metrics/record schema.  The ``to_json``
#: forms are built from the dataclass fields, so adding, removing or
#: renaming a field of ThreadMetrics, SectionMetrics, CacheLevelStats,
#: DramStats, RunMetrics or RunRecord changes the serialized form by
#: itself and needs a bump, as does a field that changes meaning.  The
#: service result store treats entries with a different version as
#: cache misses rather than deserializing them wrongly.
#: v2: JobSpec.policy may be a structured policy dict (CustomPolicy
#: payload) in addition to the original named-policy strings.
#: v3: DramStats grew remote_cache_hits / remote_cache_misses (the
#: disaggregated-tier counters), changing every metrics snapshot.
SCHEMA_VERSION = 3


def _field_dict(obj) -> dict:
    """Shallow ``{field name: value}`` dict of a dataclass instance.

    Not :func:`dataclasses.asdict`: that deep-copies every value and
    costs several times as much per object.
    """
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


@dataclass(slots=True)
class ThreadMetrics:
    """Per-thread accounting across all parallel sections (slots class:
    the replay loops increment these counters per batch)."""

    thread: int
    core: int
    #: time spent executing parallel-section work (excludes barrier waits).
    parallel_runtime: float = 0.0
    #: time spent waiting at implicit barriers (Algorithm 3's idle[tid]).
    idle_time: float = 0.0
    accesses: int = 0
    dram_accesses: int = 0
    remote_accesses: int = 0
    row_conflicts: int = 0
    faults: int = 0
    fault_ns: float = 0.0

    @property
    def remote_fraction(self) -> float:
        """Share of this thread's DRAM accesses served by a remote node."""
        return self.remote_accesses / self.dram_accesses if self.dram_accesses else 0.0


@dataclass(slots=True)
class SectionMetrics:
    """Wall-clock accounting of one fork-join section."""

    label: str
    kind: str  # "serial" | "parallel"
    start: float
    end: float
    #: idle summed over participating threads (0 for serial sections).
    idle: float = 0.0
    accesses: int = 0
    faults: int = 0
    fault_ns: float = 0.0

    @property
    def duration(self) -> float:
        """Section wall-clock, ns (end - start)."""
        return self.end - self.start

    @property
    def ns_per_access(self) -> float:
        """Mean cost of one access in this section, ns (0 if empty)."""
        return self.duration / self.accesses if self.accesses else 0.0


@dataclass
class RunMetrics:
    """Everything measured in one benchmark run."""

    name: str
    policy: str
    nthreads: int
    #: wall-clock runtime of the whole program (serial + parallel).
    runtime: float = 0.0
    #: wall-clock spent inside parallel sections only.
    parallel_runtime: float = 0.0
    serial_runtime: float = 0.0
    threads: list[ThreadMetrics] = field(default_factory=list)
    sections: list[SectionMetrics] = field(default_factory=list)
    dram: DramStats | None = None
    cache: dict[str, CacheLevelStats] = field(default_factory=dict)
    barriers: int = 0

    # ------------------------------------------------------------------ rollups
    @property
    def total_idle(self) -> float:
        """Sum of idle time over all threads (Fig. 12's metric)."""
        return sum(t.idle_time for t in self.threads)

    @property
    def max_thread_runtime(self) -> float:
        """Slowest thread's parallel runtime (Fig. 13's upper series)."""
        return max((t.parallel_runtime for t in self.threads), default=0.0)

    @property
    def min_thread_runtime(self) -> float:
        """Fastest thread's parallel runtime (Fig. 13's lower series)."""
        return min((t.parallel_runtime for t in self.threads), default=0.0)

    @property
    def runtime_spread(self) -> float:
        """max - min per-thread parallel runtime (the imbalance measure the
        paper quotes as "difference in maximum and minimum thread running
        time")."""
        return self.max_thread_runtime - self.min_thread_runtime

    @property
    def max_thread_idle(self) -> float:
        """Largest per-thread barrier-wait total (Fig. 14's metric)."""
        return max((t.idle_time for t in self.threads), default=0.0)

    @property
    def remote_fraction(self) -> float:
        """Share of all DRAM accesses served by a remote node."""
        total = sum(t.dram_accesses for t in self.threads)
        remote = sum(t.remote_accesses for t in self.threads)
        return remote / total if total else 0.0

    @property
    def total_faults(self) -> int:
        """Demand faults summed over all threads."""
        return sum(t.faults for t in self.threads)

    @property
    def total_fault_ns(self) -> float:
        """Fault-service time summed over all threads (first-touch cost)."""
        return sum(t.fault_ns for t in self.threads)

    def section(self, label: str) -> SectionMetrics:
        """Look up a section's metrics by label; raises KeyError if absent."""
        for s in self.sections:
            if s.label == label:
                return s
        raise KeyError(f"no section labelled {label!r}")

    def thread_runtimes(self) -> list[float]:
        """Per-thread parallel runtime, in thread order."""
        return [t.parallel_runtime for t in self.threads]

    def thread_idles(self) -> list[float]:
        """Per-thread barrier-wait total, in thread order."""
        return [t.idle_time for t in self.threads]

    def to_json(self) -> dict:
        """Plain-dict form of the full metrics tree, built from the fields.

        JSON-native types only, ``schema_version`` first.  Floats
        survive ``json.dumps`` exactly (shortest-repr encoding), so run
        digests over this form are stable.  Nothing reads it back: the
        result store persists :class:`~repro.experiments.runner.RunRecord`.
        """
        out = {"schema_version": SCHEMA_VERSION, **_field_dict(self)}
        out["threads"] = [_field_dict(t) for t in self.threads]
        out["sections"] = [_field_dict(s) for s in self.sections]
        out["dram"] = self.dram.to_json() if self.dram else None
        out["cache"] = {name: _field_dict(c) for name, c in self.cache.items()}
        return out

    def summary(self) -> dict[str, float]:
        """Flat dict of headline numbers (CSV/report friendly)."""
        return {
            "runtime": self.runtime,
            "parallel_runtime": self.parallel_runtime,
            "serial_runtime": self.serial_runtime,
            "total_idle": self.total_idle,
            "max_thread_runtime": self.max_thread_runtime,
            "min_thread_runtime": self.min_thread_runtime,
            "runtime_spread": self.runtime_spread,
            "max_thread_idle": self.max_thread_idle,
            "remote_fraction": self.remote_fraction,
            "total_faults": self.total_faults,
            "total_fault_ns": self.total_fault_ns,
            "barriers": self.barriers,
        }
