"""Memory traces: what one thread does in one section.

A trace is a sequence of line-granular accesses (virtual addresses) with a
per-access write flag and one think time (modelled compute charged before
every access).  Traces are built vectorised with NumPy by the workload
generators and converted to plain lists once for the simulation hot loop
(attribute access on Python ints is much faster than NumPy scalar
extraction).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class Trace:
    """One thread's accesses for one section.

    Attributes:
        vaddrs: int64 virtual addresses (line-granular; byte addresses).
        writes: bool per access.
        think_ns: compute time charged before each access, one float for
            the whole trace (an array raises ``TypeError``).
    """

    vaddrs: np.ndarray
    writes: np.ndarray
    think_ns: float = 0.0
    label: str = ""

    def __post_init__(self) -> None:
        self.vaddrs = np.asarray(self.vaddrs, dtype=np.int64)
        self.writes = np.asarray(self.writes, dtype=bool)
        if self.vaddrs.shape != self.writes.shape:
            raise ValueError("vaddrs and writes must have equal length")
        if np.ndim(self.think_ns):
            raise TypeError("think_ns is one float per trace, not an array")
        self.think_ns = float(self.think_ns)

    def __len__(self) -> int:
        return len(self.vaddrs)

    @property
    def total_think_ns(self) -> float:
        """Compute (non-memory) time summed over the whole trace, ns."""
        return self.think_ns * len(self)

    def as_lists(self) -> tuple[list[int], list[bool], float]:
        """Materialise the hot loop's inputs: (vaddrs, writes, think)."""
        return self.vaddrs.tolist(), self.writes.tolist(), self.think_ns
