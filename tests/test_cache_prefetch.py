"""Unit tests for the stride prefetcher and its hierarchy integration."""


from repro.cache.hierarchy import CacheHierarchy, MemoryLevel
from repro.cache.prefetch import StridePrefetcher
from repro.dram.system import DramSystem
from repro.machine.presets import tiny_machine
from repro.workloads.synthetic import alternating_stride_lines


class TestStrideDetector:
    def test_no_prefetch_on_first_accesses(self):
        pf = StridePrefetcher()
        assert pf.observe(100) == []
        assert pf.observe(101) == []  # stride seen once, not yet confirmed

    def test_confirmed_stride_prefetches_ahead(self):
        pf = StridePrefetcher(depth=2)
        pf.observe(100)
        pf.observe(101)
        assert pf.observe(102) == [103, 104]
        assert pf.issued == 2

    def test_negative_stride(self):
        pf = StridePrefetcher(depth=1)
        for line in (100, 98, 96):
            out = pf.observe(line)
        assert out == [94]

    def test_alternating_pattern_defeats_detector(self):
        """The paper's synthetic pattern (M, M+1, M-1, M+2, M-2, ...)
        never repeats a stride, so nothing is ever prefetched."""
        pf = StridePrefetcher(depth=2)
        for line in alternating_stride_lines(256).tolist():
            assert pf.observe(line) == []
        assert pf.issued == 0

    def test_large_strides_ignored(self):
        pf = StridePrefetcher(depth=1, max_stride_lines=8)
        for line in (0, 100, 200):
            assert pf.observe(line) == []


class TestHierarchyIntegration:
    def _hierarchy(self, prefetch):
        tiny = tiny_machine()
        dram = DramSystem(tiny.mapping, tiny.topology)
        return tiny, dram, CacheHierarchy(
            tiny.topology, dram, prefetch=prefetch
        )

    def test_sequential_stream_hits_after_warmup(self):
        tiny, dram, h = self._hierarchy(prefetch=True)
        line = tiny.mapping.line_bytes
        levels = []
        for i in range(32):  # one page worth of lines
            r = h.access(i * line, core=0, now=float(i) * 200)
            levels.append(r.level)
        # After the detector locks on, later accesses hit (prefetched).
        assert MemoryLevel.L2 in levels[3:] or MemoryLevel.L1 in levels[3:]
        assert dram.stats.prefetch_fills > 0
        assert h.prefetchers[0].useful > 0

    def test_without_prefetch_all_cold_misses(self):
        tiny, dram, h = self._hierarchy(prefetch=False)
        line = tiny.mapping.line_bytes
        for i in range(32):
            r = h.access(i * line, core=0, now=float(i) * 200)
            assert r.level is MemoryLevel.DRAM
        assert dram.stats.prefetch_fills == 0

    def test_prefetch_never_crosses_page(self):
        tiny, dram, h = self._hierarchy(prefetch=True)
        line = tiny.mapping.line_bytes
        lines_per_page = 4096 // line
        # Stream up to the end of a page.
        for i in range(lines_per_page):
            h.access(i * line, core=0, now=float(i) * 200)
        # Nothing from the next page may be resident.
        next_page_line = (4096) >> h._line_bits
        assert not h.l2[0].contains(next_page_line)
        assert not h.llc.contains(next_page_line)

    def test_alternating_pattern_gets_no_help(self):
        tiny, dram, h = self._hierarchy(prefetch=True)
        line = tiny.mapping.line_bytes
        order = alternating_stride_lines(64)
        for i, idx in enumerate(order.tolist()):
            r = h.access(int(idx) * line, core=0, now=float(i) * 200)
            assert r.level is MemoryLevel.DRAM
        assert dram.stats.prefetch_fills == 0
