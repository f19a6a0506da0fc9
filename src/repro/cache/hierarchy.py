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

from repro.cache.cache import _ABSENT, Cache
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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HierarchyResult(latency={self.latency:.1f}, level={self.level})"


class CacheHierarchy:
    """Per-core L1/L2 plus the shared LLC, wired to a :class:`DramSystem`."""

    def __init__(
        self,
        topology: MachineTopology,
        dram: DramSystem,
        timing: CacheTiming = CacheTiming(),
        prefetch: bool = False,
        prefetch_depth: int = 2,
        observer: BaseObserver = NULL_OBSERVER,
    ) -> None:
        self.topology = topology
        self.dram = dram
        self.timing = timing
        # Optional per-core stride prefetchers (ablation feature; the
        # paper's synthetic benchmark is designed to defeat them).
        self.prefetchers = (
            [StridePrefetcher(depth=prefetch_depth)
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
        #: dirty LLC evictions posted to DRAM; mirrors
        #: ``dram.stats.writebacks`` exactly (a sanitizer invariant).
        self.dirty_evictions = 0
        self.l1 = [
            Cache(topology.l1, name=f"l1[{core}]", hash_index=True)
            for core in range(topology.num_cores)
        ]
        self.l2 = [
            Cache(topology.l2, name=f"l2[{core}]", hash_index=True)
            for core in range(topology.num_cores)
        ]
        self.llc = Cache(topology.llc, name="llc", hash_index=False)
        self._line_bits = topology.llc.offset_bits
        # The LLC is plain-indexed (asserted above by construction), so its
        # set index is just ``line & mask``.  The hot path below operates on
        # its per-set dicts directly, skipping Cache method dispatch; the
        # bindings stay valid across Cache.reset() (sets are cleared in
        # place, the list object is reused).
        self._llc_sets = self.llc._sets
        self._llc_mask = self.llc._set_mask
        self._llc_ways = topology.llc.ways
        # Same for the private caches (all cores share one geometry): the
        # set lists are indexed by core, the hashed-index parameters are
        # bound once.  Used by the inlined probe/fill code below.
        self._l1_sets = [c._sets for c in self.l1]
        self._l2_sets = [c._sets for c in self.l2]
        # One row per core for the hot path: (L2 cache, L2 sets, L1 sets)
        # — a single indexed load + unpack instead of three.
        self._percore = [
            (self.l2[c], self._l2_sets[c], self._l1_sets[c])
            for c in range(topology.num_cores)
        ]
        # The same set dicts as 1-D object arrays (per core for L1/L2):
        # the engine's plan gathers each access's set dict from them with
        # one numpy index per level.  They hold references, so they stay
        # valid across Cache.reset() like the lists do.
        self._l1_set_tables = [np.array(s, dtype=object) for s in self._l1_sets]
        self._l2_set_tables = [np.array(s, dtype=object) for s in self._l2_sets]
        self._llc_set_table = np.array(self._llc_sets, dtype=object)
        self._l1_mask = topology.l1.num_sets - 1
        self._l1_ib = topology.l1.index_bits
        self._l1_ways = topology.l1.ways
        self._l2_mask = topology.l2.num_sets - 1
        self._l2_ib = topology.l2.index_bits
        self._l2_ways = topology.l2.ways
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
        return self.access_after_l1(line, paddr, core, now, is_write)

    def access_after_l1(
        self, line: int, paddr: int, core: int, now: float, is_write: bool
    ) -> HierarchyResult:
        """Continue an access whose L1 lookup already missed.

        :meth:`access` calls it after its own L1 probe; a second L1
        probe would double-count misses and perturb LRU state.  ``line``
        must equal ``paddr >> line_bits`` for the hierarchy's line size.
        """
        # L2 probe (Cache.lookup, inlined: hashed set index, pop+reinsert
        # refreshes LRU, dirty |= is_write; counters live on the Cache).
        l2, l2_sets, l1_sets = self._percore[core]
        ib = self._l2_ib
        l2_set = l2_sets[
            (line ^ (line >> ib) ^ (line >> (ib + ib))) & self._l2_mask
        ]
        l2_dirty = l2_set.pop(line, _ABSENT)
        if l2_dirty is not _ABSENT:
            l2.hits += 1
            l2_set[line] = l2_dirty or is_write
            # _fill_l1() = Cache.insert + victim write-down, inlined.
            ib = self._l1_ib
            l1_set = l1_sets[
                (line ^ (line >> ib) ^ (line >> (ib + ib))) & self._l1_mask
            ]
            present = l1_set.pop(line, _ABSENT)
            if present is not _ABSENT:
                l1_set[line] = present or is_write
            elif len(l1_set) >= self._l1_ways:
                old = next(iter(l1_set))
                old_dirty = l1_set.pop(old)
                l1_set[line] = is_write
                if old_dirty:
                    # L2 absorbs the dirty victim if present, else the LLC
                    # (Cache.mark_dirty, inlined: no LRU refresh).
                    ib = self._l2_ib
                    down = l2_sets[
                        (old ^ (old >> ib) ^ (old >> (ib + ib)))
                        & self._l2_mask
                    ]
                    if old in down:
                        down[old] = True
                    else:
                        self._spill_to_llc(old, now)
            else:
                l1_set[line] = is_write
            if self.prefetchers is not None:
                if line in self._prefetched[core]:
                    self._prefetched[core].discard(line)
                    self.prefetchers[core].useful += 1
                self._issue_prefetches(core, paddr, now)
            return self._r_l2
        l2.misses += 1

        # LLC probe with direct set-dict access (Cache.lookup, inlined: the
        # LLC is plain-indexed, so the index is one mask).  Semantics are
        # identical: pop+reinsert refreshes LRU, dirty |= is_write.
        llc = self.llc
        llc_set = self._llc_sets[line & self._llc_mask]
        dirty = llc_set.pop(line, _ABSENT)
        if dirty is not _ABSENT:
            llc.hits += 1
            llc_set[line] = dirty or is_write
            self._fill_private(core, line, is_write, now)
            return self._r_llc
        llc.misses += 1

        # LLC miss -> DRAM.
        dram = self.dram
        dram_result = dram.access(paddr, core, now, is_write)
        # Cache.insert() on the missing set, inlined: evict the LRU entry
        # of a full set (dirty victims become posted DRAM write-backs),
        # then install the new line with the access's dirty bit.
        if len(llc_set) >= self._llc_ways:
            old = next(iter(llc_set))
            if llc_set.pop(old):
                self.dirty_evictions += 1
                dram.writeback(old << self._line_bits, now)
        llc_set[line] = is_write
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
            victim = self.llc.insert(pf_line, dirty=False)
            if victim is not None and victim.dirty:
                self.dirty_evictions += 1
                self.dram.writeback(victim.line_addr << self._line_bits, now)
            l2_victim = self.l2[core].insert(pf_line, dirty=False)
            if l2_victim is not None and l2_victim.dirty:
                self._spill_to_llc(l2_victim.line_addr, now)
            self._prefetched[core].add(pf_line)

    # ------------------------------------------------------------------ fills
    def _fill_private(self, core: int, line: int, dirty: bool, now: float) -> None:
        """Fill a line into the private L2 then L1 after an outer-level hit.

        Both ``Cache.insert`` calls and the victim write-downs are inlined
        with direct set-dict access (this runs once per access that left
        the private caches); semantics match the method-based sequence
        ``l2.insert(line, False)`` / spill / ``l1.insert(line, dirty)`` /
        ``l2.mark_dirty`` or spill, exactly.
        """
        _, l2_sets, l1_sets = self._percore[core]
        ib = self._l2_ib
        l2_mask = self._l2_mask
        l2_set = l2_sets[(line ^ (line >> ib) ^ (line >> (ib + ib))) & l2_mask]
        present = l2_set.pop(line, _ABSENT)
        if present is not _ABSENT:
            l2_set[line] = present  # clean refill keeps the dirty bit
        elif len(l2_set) >= self._l2_ways:
            old = next(iter(l2_set))
            old_dirty = l2_set.pop(old)
            l2_set[line] = False
            if old_dirty:
                self._spill_to_llc(old, now)
        else:
            l2_set[line] = False
        # _fill_l1(), inlined (L1 insert + dirty-victim write-down).
        ib1 = self._l1_ib
        l1_set = l1_sets[
            (line ^ (line >> ib1) ^ (line >> (ib1 + ib1))) & self._l1_mask
        ]
        present = l1_set.pop(line, _ABSENT)
        if present is not _ABSENT:
            l1_set[line] = present or dirty
        elif len(l1_set) >= self._l1_ways:
            old = next(iter(l1_set))
            old_dirty = l1_set.pop(old)
            l1_set[line] = dirty
            if old_dirty:
                # L2 absorbs the victim if present, else the LLC.
                down = l2_sets[
                    (old ^ (old >> ib) ^ (old >> (ib + ib))) & l2_mask
                ]
                if old in down:
                    down[old] = True
                else:
                    self._spill_to_llc(old, now)
        else:
            l1_set[line] = dirty

    def _spill_to_llc(self, line: int, now: float) -> None:
        """Absorb a dirty private-cache victim into the LLC.

        Equivalent to ``llc.mark_dirty(line) or llc.insert(line, True)``
        with direct set-dict access: present lines just gain the dirty bit
        (no LRU refresh — a write-down is not a use by the core), absent
        lines are installed dirty, evicting the LRU entry if needed.
        """
        llc_set = self._llc_sets[line & self._llc_mask]
        if line in llc_set:
            llc_set[line] = True
            return
        if len(llc_set) >= self._llc_ways:
            old = next(iter(llc_set))
            if llc_set.pop(old):
                self.dirty_evictions += 1
                self.dram.writeback(old << self._line_bits, now)
        llc_set[line] = True

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

    def reset(self) -> None:
        """Empty every cache and zero all counters (fresh-run state)."""
        self.dirty_evictions = 0
        for cache in (*self.l1, *self.l2, self.llc):
            cache.reset()
        if self.prefetchers is not None:
            for pf in self.prefetchers:
                pf.reset()
        for s in self._prefetched:
            s.clear()
