"""Per-bank row-buffer state machine.

A bank serves one request at a time (``busy_until`` occupancy) and keeps at
most one row open.  Requests to the open row are cheap (row hit); requests
to another row pay precharge + activate (row conflict); requests to an idle
bank pay activate only (closed miss).  Periodic refresh closes the row.

This is exactly the mechanism behind the paper's Fig. 8: two tasks that
interleave accesses to different rows of a *shared* bank turn each other's
row hits into row conflicts.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.dram.timing import DramTiming


class RowKind(enum.Enum):
    """Outcome of a row-buffer lookup."""

    HIT = "hit"
    MISS = "miss"  # bank idle (no open row): activate + access
    CONFLICT = "conflict"  # other row open: precharge + activate + access


@dataclass(slots=True)
class Bank:
    """Mutable state of one DRAM bank.

    A ``slots`` dataclass: one instance exists per bank color (128 on the
    Opteron preset) and every LLC miss touches one, so attribute access
    speed matters.

    Attributes:
        open_row: currently open row id, or None when precharged.
        busy_until: time at which the bank can accept the next request.
        refresh_epoch: last refresh window observed (lazily maintained).
    """

    timing: DramTiming
    open_row: int | None = None
    busy_until: float = 0.0
    refresh_epoch: int = -1
    hits: int = field(default=0)
    misses: int = field(default=0)
    conflicts: int = field(default=0)

    def access(self, row: int, now: float, is_write: bool) -> tuple[float, float, RowKind]:
        """Serve a demand request.

        Returns ``(start, service, kind)``: the time the bank began serving
        (after queueing behind earlier requests) and the service latency.
        The caller's critical-path completion time is ``start + service``.
        """
        start = max(now, self.busy_until)
        t = self.timing
        # Crossing a refresh boundary closes the row buffer (the epoch is
        # maintained lazily), then the open row classifies the request.
        epoch = int(start // t.refresh_interval)
        if epoch != self.refresh_epoch:
            self.refresh_epoch = epoch
            self.open_row = None
        if self.open_row is None:
            kind = RowKind.MISS
            service = t.row_miss
            self.misses += 1
        elif self.open_row == row:
            kind = RowKind.HIT
            service = t.row_hit
            self.hits += 1
        else:
            kind = RowKind.CONFLICT
            service = t.row_conflict
            self.conflicts += 1
        occupancy = service + (t.write_recovery if is_write else 0.0)
        self.open_row = row
        self.busy_until = start + occupancy
        return start, service, kind

    def writeback(self, row: int, now: float) -> None:
        """Absorb a posted write-back (eviction) off the critical path.

        Controllers queue writes and drain them opportunistically, so the
        write does not steal the open row; it does occupy the bank — which
        is how un-partitioned LLC evictions disturb other threads' banks.
        """
        start = max(now, self.busy_until)
        t = self.timing
        # Same refresh rule as access(); the write opens no row.
        epoch = int(start // t.refresh_interval)
        if epoch != self.refresh_epoch:
            self.refresh_epoch = epoch
            self.open_row = None
        if self.open_row is None:
            base = t.row_miss
        elif self.open_row == row:
            base = t.row_hit
        else:
            base = t.row_conflict
        occupancy = (base + t.write_recovery) * t.writeback_occupancy_scale
        self.busy_until = start + occupancy

    @property
    def total_accesses(self) -> int:
        """Row activations of any kind (hits + misses + conflicts)."""
        return self.hits + self.misses + self.conflicts

    def reset_stats(self) -> None:
        """Zero the row-outcome counters (timing state is untouched)."""
        self.hits = self.misses = self.conflicts = 0
