"""DRAM-layer checker: bank state-machine legality and queue conservation.

Guards :mod:`repro.dram.system`'s flat bank state: every bank's
``bank_busy`` must stay finite, non-negative, and non-rewinding (the
occupancy model only ever books time forward); a bank may only hold an
open row after serving at least one request; and the transaction flow
must be conserved — every demand access and prefetch fill is served by
exactly one bank (the per-bank hits + misses + conflicts sum to
``accesses + prefetch_fills - remote_cache_hits``, the occupancy
model's enqueued == serviced + pending; a compute-side DRAM-cache hit on
a disaggregated node short-circuits before any bank), with the aggregate
stats decomposing exactly by row outcome, locality, node, and queue-wait
component.
"""

from __future__ import annotations

import math

from repro.dram.system import DramSystem
from repro.sanitize.base import Checker

#: Stats fields that may never decrease during a run.
_MONOTONE_FIELDS = (
    "accesses", "row_hits", "row_misses", "row_conflicts",
    "local_accesses", "remote_accesses", "writebacks", "prefetch_fills",
    "remote_cache_hits", "remote_cache_misses",
    "total_latency", "total_queue_wait",
    "wait_link", "wait_ctrl", "wait_chan", "wait_bank",
)


class DramChecker(Checker):
    """Legality and conservation invariants of the DRAM system."""

    layer = "dram"

    def __init__(self, dram: DramSystem) -> None:
        self.dram = dram
        self._last_busy = list(dram.bank_busy)
        self._last_stats: dict[str, float] | None = None

    # ------------------------------------------------------------------ cheap
    def check_fast(self) -> None:
        """Aggregate-stats identities and monotonicity (no bank walk)."""
        s = self.dram.stats
        kinds = s.row_hits + s.row_misses + s.row_conflicts
        if kinds != s.accesses:
            self.fail(
                "row-kind-conservation",
                f"hits+misses+conflicts={kinds} but accesses={s.accesses}",
            )
        if s.local_accesses + s.remote_accesses != s.accesses:
            self.fail(
                "locality-conservation",
                f"local+remote={s.local_accesses + s.remote_accesses} but "
                f"accesses={s.accesses}",
            )
        per_node = sum(s.per_node_accesses.values())
        if per_node != s.accesses:
            self.fail(
                "per-node-conservation",
                f"per-node counts sum to {per_node} but accesses={s.accesses}",
            )
        if s.remote_cache_hits > s.local_accesses:
            self.fail(
                "remote-cache-hit-conservation",
                f"remote_cache_hits={s.remote_cache_hits} exceeds "
                f"local_accesses={s.local_accesses} (hits are flat local "
                "serves)",
            )
        if s.remote_cache_misses > s.remote_accesses:
            self.fail(
                "remote-cache-miss-conservation",
                f"remote_cache_misses={s.remote_cache_misses} exceeds "
                f"remote_accesses={s.remote_accesses} (every miss crosses "
                "the fabric)",
            )
        waits = s.wait_link + s.wait_ctrl + s.wait_chan + s.wait_bank
        if abs(waits - s.total_queue_wait) > 1e-6 * max(1.0, s.total_queue_wait):
            self.fail(
                "queue-wait-decomposition",
                f"wait components sum to {waits} but total_queue_wait="
                f"{s.total_queue_wait}",
            )
        current = {name: getattr(s, name) for name in _MONOTONE_FIELDS}
        for name, value in current.items():
            if value < 0:
                self.fail("stat-negative", f"{name}={value}")
            if not math.isfinite(value):
                self.fail("stat-nonfinite", f"{name}={value}")
        if self._last_stats is not None:
            for name, value in current.items():
                if value < self._last_stats[name]:
                    self.fail(
                        "stat-rewind",
                        f"{name} went from {self._last_stats[name]} to {value}",
                    )
        self._last_stats = current

    # ------------------------------------------------------------------ full
    def check(self) -> None:
        """Per-bank state-machine walk plus bank/stats queue conservation."""
        self.check_fast()
        dram = self.dram
        served = 0
        for color, (busy, row, hits, misses, conflicts) in enumerate(zip(
            dram.bank_busy, dram.bank_row, dram.bank_hits, dram.bank_misses,
            dram.bank_conflicts,
        )):
            if not math.isfinite(busy) or busy < 0.0:
                self.fail(
                    "bank-busy-illegal",
                    f"bank {color}: busy_until={busy}", bank=color,
                )
            if busy < self._last_busy[color]:
                self.fail(
                    "bank-busy-rewind",
                    f"bank {color}: busy_until rewound from "
                    f"{self._last_busy[color]} to {busy} — occupancy only "
                    "books forward",
                    bank=color,
                )
            self._last_busy[color] = busy
            if hits < 0 or misses < 0 or conflicts < 0:
                self.fail(
                    "bank-counter-negative",
                    f"bank {color}: hits={hits} misses={misses} "
                    f"conflicts={conflicts}",
                    bank=color,
                )
            total = hits + misses + conflicts
            if row is not None:
                if row < 0:
                    self.fail(
                        "bank-row-illegal",
                        f"bank {color}: open_row={row}", bank=color,
                    )
                if total == 0:
                    self.fail(
                        "bank-row-phantom",
                        f"bank {color} has row {row} open but never "
                        "served a request — illegal transition out of idle",
                        bank=color,
                    )
            served += total
        enqueued = (
            dram.stats.accesses + dram.stats.prefetch_fills
            - dram.stats.remote_cache_hits
        )
        if served != enqueued:
            self.fail(
                "bank-queue-conservation",
                f"banks served {served} requests but {enqueued} were enqueued "
                "(demand + prefetch - remote-cache hits)",
            )
        for node, busy in enumerate(dram._ctrl_busy):
            if not math.isfinite(busy) or busy < 0.0:
                self.fail(
                    "ctrl-busy-illegal",
                    f"controller {node}: busy={busy}", node=node,
                )
        for chan, busy in enumerate(dram._chan_busy):
            if not math.isfinite(busy) or busy < 0.0:
                self.fail(
                    "chan-busy-illegal",
                    f"channel {chan}: busy={busy}", chan=chan,
                )
        for node, busy in dram._net_busy.items():
            if not math.isfinite(busy) or busy < 0.0:
                self.fail(
                    "net-busy-illegal",
                    f"remote link {node}: busy={busy}", node=node,
                )
