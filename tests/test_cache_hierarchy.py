"""Unit tests for the L1/L2/LLC hierarchy over the DRAM model."""

import pytest

from repro.cache.hierarchy import CacheHierarchy, CacheTiming, MemoryLevel
from repro.dram.system import DramSystem


@pytest.fixture
def setup(tiny):
    dram = DramSystem(tiny.mapping, tiny.topology)
    return tiny, dram, CacheHierarchy(tiny.topology, dram)


class TestLevels:
    def test_cold_access_goes_to_dram(self, setup):
        _, dram, h = setup
        r = h.access(0x1000, core=0, now=0.0)
        assert r.level is MemoryLevel.DRAM
        assert r.dram is not None
        assert dram.stats.accesses == 1

    def test_second_access_hits_l1(self, setup):
        _, _, h = setup
        h.access(0x1000, 0, 0.0)
        r = h.access(0x1000, 0, 100.0)
        assert r.level is MemoryLevel.L1
        assert r.latency == h.timing.l1_hit

    def test_same_line_different_offset_hits(self, setup):
        tiny, _, h = setup
        h.access(0x1000, 0, 0.0)
        r = h.access(0x1000 + tiny.mapping.line_bytes - 1, 0, 100.0)
        assert r.level is MemoryLevel.L1

    def test_other_core_misses_private_hits_llc(self, setup):
        _, _, h = setup
        h.access(0x1000, core=0, now=0.0)
        r = h.access(0x1000, core=1, now=100.0)
        assert r.level is MemoryLevel.LLC

    def test_latency_ordering(self, setup):
        _, _, h = setup
        dram_r = h.access(0x2000, 0, 0.0)
        l1_r = h.access(0x2000, 0, 1000.0)
        llc_r = h.access(0x2000, 1, 2000.0)
        assert l1_r.latency < llc_r.latency < dram_r.latency


class TestL2Path:
    def test_l1_capacity_falls_to_l2(self, setup):
        tiny, _, h = setup
        line = tiny.mapping.line_bytes
        n_l1_lines = tiny.topology.l1.num_lines
        # Touch enough distinct lines to overflow L1 but not L2.
        for i in range(n_l1_lines * 2):
            h.access(i * line, 0, float(i) * 1000)
        r = h.access(0, 0, 1e9)
        assert r.level in (MemoryLevel.L2, MemoryLevel.L1)
        stats = h.level_stats()
        assert stats["l2"].hits > 0


class TestWritebacks:
    def test_dirty_llc_eviction_writes_back(self, tiny):
        dram = DramSystem(tiny.mapping, tiny.topology)
        h = CacheHierarchy(tiny.topology, dram)
        line = tiny.mapping.line_bytes
        llc_lines = tiny.topology.llc.num_lines
        # Write far more lines than the LLC holds -> dirty evictions.
        for i in range(llc_lines * 2):
            h.access(i * line, 0, float(i) * 100, is_write=True)
        assert dram.stats.writebacks > 0

    def test_clean_evictions_do_not_write_back(self, tiny):
        dram = DramSystem(tiny.mapping, tiny.topology)
        h = CacheHierarchy(tiny.topology, dram)
        line = tiny.mapping.line_bytes
        for i in range(tiny.topology.llc.num_lines * 2):
            h.access(i * line, 0, float(i) * 100, is_write=False)
        assert dram.stats.writebacks == 0


def _lines(n, pred, start=1):
    """The first ``n`` line addresses from ``start`` up that satisfy ``pred``."""
    found = []
    line = start
    while len(found) < n:
        if pred(line):
            found.append(line)
        line += 1
    return found


class TestWriteDown:
    """Non-inclusive write-down of dirty L1 victims (tiny preset: 2-way
    L1, 4-way L2, 8-way LLC).  Each test dirties line ``a`` in core 0's
    L1, then evicts it from there with two reads to its L1 set."""

    @staticmethod
    def _sets(h, a):
        l1, l2, llc = h.l1[0], h.l2[0], h.llc
        return l1.set_of_line(a), l2.set_of_line(a), llc.set_of_line(a)

    def _evict_from_l1(self, h, a, line_bytes, now):
        l1_set, l2_set, llc_set = self._sets(h, a)
        l1, l2, llc = h.l1[0], h.l2[0], h.llc
        for b in _lines(2, lambda x: x != a
                        and l1.set_of_line(x) == l1_set
                        and l2.set_of_line(x) != l2_set
                        and llc.set_of_line(x) != llc_set):
            h.access(b * line_bytes, 0, now)
            now += 1000.0
        assert not l1.contains(a)
        return now

    def _dirty_in_l1_only(self, h, a, line_bytes, llc_writer_writes):
        """Read then write ``a`` on core 0 (dirty in L1, clean in L2 and
        the LLC), then drop it from core 0's L2 and from the LLC: four
        core-0 reads fill its L2 set, eight core-1 accesses its LLC set
        (writes when ``llc_writer_writes``, leaving every line dirty)."""
        l1_set, l2_set, llc_set = self._sets(h, a)
        l1, l2, llc = h.l1[0], h.l2[0], h.llc
        h.access(a * line_bytes, 0, 0.0)
        h.access(a * line_bytes, 0, 1000.0, is_write=True)
        now = 2000.0
        for x in _lines(4, lambda x: x != a
                        and l2.set_of_line(x) == l2_set
                        and l1.set_of_line(x) != l1_set
                        and llc.set_of_line(x) != llc_set):
            h.access(x * line_bytes, 0, now)
            now += 1000.0
        assert not l2.contains(a)
        evictors = _lines(8, lambda x: x != a and llc.set_of_line(x) == llc_set)
        for x in evictors:
            h.access(x * line_bytes, 1, now, is_write=llc_writer_writes)
            now += 1000.0
        assert not llc.contains(a)
        assert h.l1[0]._sets[l1_set][a] is True
        return now, evictors

    def test_victim_held_by_l2_turns_dirty_without_lru_move(self, setup):
        tiny, dram, h = setup
        line_bytes = tiny.mapping.line_bytes
        a = 1
        l1_set, l2_set, _ = self._sets(h, a)
        l1, l2 = h.l1[0], h.l2[0]
        h.access(a * line_bytes, 0, 0.0, is_write=True)
        (x,) = _lines(1, lambda x: x != a and l2.set_of_line(x) == l2_set
                      and l1.set_of_line(x) != l1_set)
        h.access(x * line_bytes, 0, 1000.0)
        assert list(l2._sets[l2_set].items()) == [(a, False), (x, False)]
        l2_hits = l2.hits
        self._evict_from_l1(h, a, line_bytes, 2000.0)
        assert list(l2._sets[l2_set].items()) == [(a, True), (x, False)]
        assert l2.hits == l2_hits
        assert dram.stats.writebacks == 0

    def test_victim_lost_by_l2_installs_dirty_in_llc(self, setup):
        tiny, dram, h = setup
        line_bytes = tiny.mapping.line_bytes
        a = 1
        now, _ = self._dirty_in_l1_only(h, a, line_bytes, False)
        self._evict_from_l1(h, a, line_bytes, now)
        assert not h.l2[0].contains(a)
        assert h.llc._sets[h.llc.set_of_line(a)][a] is True
        assert dram.stats.writebacks == 0
        assert h.dirty_evictions == 0

    def test_install_into_full_dirty_llc_set_posts_one_writeback(self, setup):
        tiny, dram, h = setup
        line_bytes = tiny.mapping.line_bytes
        a = 1
        now, evictors = self._dirty_in_l1_only(h, a, line_bytes, True)
        llc_set = h.llc._sets[h.llc.set_of_line(a)]
        assert list(llc_set.items()) == [(x, True) for x in evictors]
        assert dram.stats.writebacks == 0
        self._evict_from_l1(h, a, line_bytes, now)
        assert list(llc_set.items()) == (
            [(x, True) for x in evictors[1:]] + [(a, True)]
        )
        assert dram.stats.writebacks == 1
        assert h.dirty_evictions == dram.stats.writebacks


class TestStats:
    def test_level_stats_rollup(self, setup):
        _, _, h = setup
        h.access(0x100, 0, 0.0)
        h.access(0x100, 0, 10.0)
        stats = h.level_stats()
        assert stats["l1"].hits == 1
        assert stats["l1"].misses == 1
        assert stats["llc"].misses == 1

    def test_core_stats(self, setup):
        _, _, h = setup
        h.access(0x100, 2, 0.0)
        assert h.core_stats(2)["l1"].misses == 1
        assert h.core_stats(0)["l1"].accesses == 0

    def test_reset(self, setup):
        _, _, h = setup
        h.access(0x100, 0, 0.0)
        h.reset()
        stats = h.level_stats()
        assert stats["l1"].accesses == 0
        assert h.llc.occupancy() == 0


class TestCacheTiming:
    def test_ordering_validated(self):
        with pytest.raises(ValueError):
            CacheTiming(l1_hit=10.0, l2_hit=5.0)
