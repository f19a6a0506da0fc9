"""Three-level cache hierarchy in front of the DRAM system.

Private L1 and L2 per core, one LLC shared by all cores (as the paper
describes its platform).  Non-inclusive: an LLC eviction does not recall
private copies, and private-cache victims write their dirty state down
into the LLC.  Dirty LLC victims become posted DRAM write-backs — the
channel through which un-partitioned LLC sharing converts one thread's
misses into another thread's bank traffic.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.cache.cache import Cache
from repro.cache.prefetch import StridePrefetcher
from repro.cache.stats import CacheLevelStats
from repro.dram.system import AccessResult, DramSystem
from repro.machine.topology import MachineTopology
from repro.obs.observer import NULL_OBSERVER, BaseObserver


class MemoryLevel(enum.Enum):
    """Where an access was satisfied."""

    L1 = "l1"
    L2 = "l2"
    LLC = "llc"
    DRAM = "dram"


@dataclass(frozen=True)
class CacheTiming:
    """Hit latencies (ns) per level; DRAM latency comes from the DRAM model."""

    l1_hit: float = 1.4
    l2_hit: float = 4.5
    llc_hit: float = 14.0

    def __post_init__(self) -> None:
        if not 0 <= self.l1_hit <= self.l2_hit <= self.llc_hit:
            raise ValueError("hit latencies must be ordered l1 <= l2 <= llc")


class HierarchyResult:
    """Outcome of one memory access through the hierarchy (slots class)."""

    __slots__ = ("latency", "level", "dram")

    def __init__(
        self,
        latency: float,
        level: MemoryLevel,
        dram: AccessResult | None = None,
    ) -> None:
        self.latency = latency
        self.level = level
        self.dram = dram


class CacheHierarchy:
    """Per-core L1/L2 plus the shared LLC, wired to a :class:`DramSystem`."""

    def __init__(
        self,
        topology: MachineTopology,
        dram: DramSystem,
        timing: CacheTiming = CacheTiming(),
        prefetch: bool = False,
        observer: BaseObserver = NULL_OBSERVER,
    ) -> None:
        self.topology = topology
        self.dram = dram
        self.timing = timing
        # Optional per-core stride prefetchers (ablation feature; the
        # paper's synthetic benchmark is designed to defeat them).
        self.prefetchers = (
            [StridePrefetcher()
             for _ in range(topology.num_cores)]
            if prefetch
            else None
        )
        #: lines resident due to a prefetch, per core (for accuracy stats).
        self._prefetched: list[set[int]] = [
            set() for _ in range(topology.num_cores)
        ]
        # Private caches use hashed indexing (VIPT-like), so page coloring
        # cannot shrink them; the LLC uses plain physical indexing, which
        # is exactly what makes its sets colorable via frame selection.
        self.l1 = [
            Cache(topology.l1, name=f"l1[{core}]", hash_index=True)
            for core in range(topology.num_cores)
        ]
        self.l2 = [
            Cache(topology.l2, name=f"l2[{core}]", hash_index=True)
            for core in range(topology.num_cores)
        ]
        self.llc = Cache(topology.llc, name="llc", hash_index=False)
        #: dirty LLC evictions posted to DRAM; mirrors
        #: ``dram.stats.writebacks`` exactly (a sanitizer invariant).
        self.dirty_evictions = 0
        self._line_bits = topology.llc.offset_bits
        # LLC victims reach DramSystem.writeback as line numbers.
        if self._line_bits != dram.mapping.line_bits:
            raise ValueError("LLC line size differs from the DRAM mapping's")
        # What the engine's batched loop reads: each cache's set dicts
        # (the L2's per core, for L1 victims written down through it),
        # the geometry it indexes them with, and the same sets as 1-D
        # object arrays that its plan gathers each access's set dict
        # from.
        self._l2_sets = [c._sets for c in self.l2]
        self._llc_sets = self.llc._sets
        self._l2_ib = topology.l2.index_bits
        self._l2_mask = topology.l2.num_sets - 1
        self._llc_mask = topology.llc.num_sets - 1
        self._l1_ways = topology.l1.ways
        self._l2_ways = topology.l2.ways
        self._llc_ways = topology.llc.ways
        self._l1_set_tables = [np.array(c._sets, dtype=object) for c in self.l1]
        self._l2_set_tables = [np.array(s, dtype=object) for s in self._l2_sets]
        self._llc_set_table = np.array(self._llc_sets, dtype=object)
        # Hit outcomes are identical for every access at a level; reuse one
        # immutable result object per level (hot-path allocation saving).
        self._r_l1 = HierarchyResult(timing.l1_hit, MemoryLevel.L1)
        self._r_l2 = HierarchyResult(timing.l2_hit, MemoryLevel.L2)
        self._r_llc = HierarchyResult(timing.llc_hit, MemoryLevel.LLC)
        self._register_counters(observer)

    def _register_counters(self, obs: BaseObserver) -> None:
        """Per-level hit/miss counters, sampled from the live caches.

        Pull-based: the lookup path stays untouched; the observer sums
        the per-core counters only at its sampling cadence.
        """
        if not obs.enabled:
            return
        obs.register_counter(
            "cache.l1.hits", lambda now: sum(c.hits for c in self.l1)
        )
        obs.register_counter(
            "cache.l1.misses", lambda now: sum(c.misses for c in self.l1)
        )
        obs.register_counter(
            "cache.l2.hits", lambda now: sum(c.hits for c in self.l2)
        )
        obs.register_counter(
            "cache.l2.misses", lambda now: sum(c.misses for c in self.l2)
        )
        obs.register_counter("cache.llc.hits", lambda now: self.llc.hits)
        obs.register_counter("cache.llc.misses", lambda now: self.llc.misses)

    # ------------------------------------------------------------------ access
    def access(
        self, paddr: int, core: int, now: float, is_write: bool = False
    ) -> HierarchyResult:
        """Run one line-granular access; returns latency and the hit level.

        Args:
            paddr: physical byte address.
            core: issuing core (selects the private L1/L2 pair).
            now: issue time in ns.
            is_write: write accesses set dirty bits on the hit line.

        Returns:
            A :class:`HierarchyResult`; ``dram`` is populated only when
            the access went to memory.
        """
        line = paddr >> self._line_bits
        if self.l1[core].lookup(line, is_write):
            return self._r_l1
        if self.l2[core].lookup(line, is_write):
            self._fill_l1(core, line, is_write, now)
            if self.prefetchers is not None:
                if line in self._prefetched[core]:
                    self._prefetched[core].discard(line)
                    self.prefetchers[core].useful += 1
                self._issue_prefetches(core, paddr, now)
            return self._r_l2
        if self.llc.lookup(line, is_write):
            self._fill_private(core, line, is_write, now)
            return self._r_llc
        dram_result = self.dram.access(paddr, core, now, is_write)
        self._fill_llc(line, is_write, now)
        self._fill_private(core, line, is_write, now)
        if self.prefetchers is not None:
            self._issue_prefetches(core, paddr, now)
        return HierarchyResult(
            self.timing.llc_hit + dram_result.latency,
            MemoryLevel.DRAM,
            dram=dram_result,
        )

    def _issue_prefetches(self, core: int, paddr: int, now: float) -> None:
        """Run the stride detector and fill predicted lines into L2/LLC.

        Prefetches never cross the 4 KiB frame boundary (physical
        prefetchers cannot, since the next frame is unrelated memory).
        """
        line = paddr >> self._line_bits
        page = paddr >> 12
        for pf_line in self.prefetchers[core].observe(line):
            pf_paddr = pf_line << self._line_bits
            if pf_paddr >> 12 != page or pf_paddr < 0:
                continue
            if self.l2[core].contains(pf_line) or self.llc.contains(pf_line):
                continue
            self.dram.prefetch_fill(pf_paddr, core, now)
            self._fill_llc(pf_line, False, now)
            self._fill_l2(core, pf_line, now)
            self._prefetched[core].add(pf_line)

    # ------------------------------------------------------------------ fills
    def _fill_private(self, core: int, line: int, dirty: bool, now: float) -> None:
        """Fill a line into the private L2 (clean) then the L1 after an
        LLC hit or a DRAM fill; ``dirty`` is the access's write flag."""
        self._fill_l2(core, line, now)
        self._fill_l1(core, line, dirty, now)

    def _fill_l2(self, core: int, line: int, now: float) -> None:
        """Install a clean line in the core's L2; a dirty victim spills."""
        victim = self.l2[core].insert(line, False)
        if victim is not None:
            self._spill_to_llc(victim, now)

    def _fill_l1(self, core: int, line: int, dirty: bool, now: float) -> None:
        """Install a line in the core's L1 and write a dirty victim down:
        the L2 absorbs it if it holds the line, else the LLC does."""
        victim = self.l1[core].insert(line, dirty)
        if victim is not None and not self.l2[core].mark_dirty(victim):
            self._spill_to_llc(victim, now)

    def _spill_to_llc(self, line: int, now: float) -> None:
        """Absorb a dirty private-cache victim into the LLC.

        A resident line just gains the dirty bit (no LRU refresh: a
        write-down is not a use by the core); an absent one is installed
        dirty.
        """
        if not self.llc.mark_dirty(line):
            self._fill_llc(line, True, now)

    def _fill_llc(self, line: int, dirty: bool, now: float) -> None:
        """Install a line in the LLC; a dirty victim becomes a posted
        DRAM write-back."""
        victim = self.llc.insert(line, dirty)
        if victim is not None:
            self.dirty_evictions += 1
            self.dram.writeback(victim, now)

    # ------------------------------------------------------------------ stats
    def level_stats(self) -> dict[str, CacheLevelStats]:
        """Aggregate hit/miss counters per level (L1/L2 summed over cores)."""
        l1 = CacheLevelStats("l1", sum(c.hits for c in self.l1),
                             sum(c.misses for c in self.l1))
        l2 = CacheLevelStats("l2", sum(c.hits for c in self.l2),
                             sum(c.misses for c in self.l2))
        llc = CacheLevelStats("llc", self.llc.hits, self.llc.misses)
        return {"l1": l1, "l2": l2, "llc": llc}

    def core_stats(self, core: int) -> dict[str, CacheLevelStats]:
        """Private-cache counter snapshots for one core, keyed by level."""
        return {
            "l1": CacheLevelStats("l1", self.l1[core].hits, self.l1[core].misses),
            "l2": CacheLevelStats("l2", self.l2[core].hits, self.l2[core].misses),
        }
