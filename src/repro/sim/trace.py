"""Memory traces: what one thread does in one section.

A trace is a sequence of line-granular accesses (virtual addresses) with a
per-access write flag and think time (modelled compute between accesses).
Traces are built vectorised with NumPy by the workload generators and
converted to plain lists once for the simulation hot loop (attribute
access on Python ints is much faster than NumPy scalar extraction).
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
        think_ns: compute time charged before each access.  Scalar, or an
            array of per-access values.
    """

    vaddrs: np.ndarray
    writes: np.ndarray
    think_ns: float | np.ndarray = 0.0
    label: str = ""

    def __post_init__(self) -> None:
        self.vaddrs = np.asarray(self.vaddrs, dtype=np.int64)
        self.writes = np.asarray(self.writes, dtype=bool)
        if self.vaddrs.shape != self.writes.shape:
            raise ValueError("vaddrs and writes must have equal length")
        if isinstance(self.think_ns, np.ndarray) and (
            self.think_ns.shape != self.vaddrs.shape
        ):
            raise ValueError("per-access think_ns must match trace length")

    def __len__(self) -> int:
        return len(self.vaddrs)

    @property
    def total_think_ns(self) -> float:
        """Compute (non-memory) time summed over the whole trace, ns."""
        if isinstance(self.think_ns, np.ndarray):
            return float(self.think_ns.sum())
        return float(self.think_ns) * len(self)

    def as_lists(self) -> tuple[list[int], list[bool], list[float]]:
        """Materialise hot-loop lists: (vaddrs, writes, think per access)."""
        if isinstance(self.think_ns, np.ndarray):
            think = self.think_ns.astype(float).tolist()
        else:
            think = [float(self.think_ns)] * len(self)
        return self.vaddrs.tolist(), self.writes.tolist(), think
