"""Program structure: alternating serial and parallel sections.

An OpenMP-style fork-join program is a list of sections.  A *serial*
section runs only the master thread; a *parallel* section runs a trace on
every participating thread and ends with an implicit barrier where the
engine measures idle time per the paper's Algorithm 3::

    end[tid]  = time thread tid finished its section work
    max       = max over end[*]
    idle[tid] = max - end[tid]
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sim.trace import Trace


@dataclass
class Section:
    """One fork-join section.

    Attributes:
        kind: ``"serial"`` or ``"parallel"``.
        traces: thread index -> trace.  Serial sections carry exactly one
            entry for the master (index 0); parallel sections one entry per
            participating thread.
        label: diagnostic name ("init", "compute[2]", ...).
    """

    kind: str
    traces: dict[int, Trace]
    label: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ("serial", "parallel"):
            raise ValueError(f"unknown section kind {self.kind!r}")
        if self.kind == "serial":
            if set(self.traces) != {0}:
                raise ValueError("serial sections must carry only thread 0")
        elif not self.traces:
            raise ValueError("parallel section needs at least one trace")

    @property
    def accesses(self) -> int:
        """Total memory accesses across this section's traces."""
        return sum(len(t) for t in self.traces.values())


@dataclass
class Program:
    """A full benchmark run: ordered sections over a fixed thread team."""

    sections: list[Section]
    nthreads: int
    name: str = ""
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        for section in self.sections:
            bad = [i for i in section.traces if not 0 <= i < self.nthreads]
            if bad:
                raise ValueError(
                    f"section {section.label!r} references threads {bad} "
                    f"outside team of {self.nthreads}"
                )

    @property
    def total_accesses(self) -> int:
        """Memory accesses summed over every section."""
        return sum(s.accesses for s in self.sections)
