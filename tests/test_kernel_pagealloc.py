"""Unit tests for Algorithm 1 (colored page selection) and the buddy path."""

import pytest

from repro.kernel.frame import FramePool, FrameState
from repro.kernel.pagealloc import PageAllocator
from repro.kernel.task import TaskStruct
from repro.machine.presets import tiny_machine
from repro.util.units import MIB


@pytest.fixture
def alloc(tiny):
    return PageAllocator(FramePool(tiny.mapping), tiny.topology)


def colored_task(tiny, core=0, mem=None, llc=None, tid=1):
    task = TaskStruct(tid=tid, core=core)
    for c in mem or ():
        task.add_mem_color(c)
    for c in llc or ():
        task.add_llc_color(c)
    return task


class TestUncoloredPath:
    def test_local_node_preferred(self, tiny, alloc):
        for core in range(tiny.topology.num_cores):
            task = TaskStruct(tid=core + 1, core=core)
            out = alloc.alloc_pages(task, order=0)
            node = alloc.pool.node_of_frame(out.pfn)
            assert node == tiny.topology.node_of_core(core)
            assert not out.colored

    def test_higher_orders_supported(self, tiny, alloc):
        task = TaskStruct(tid=1, core=0)
        out = alloc.alloc_pages(task, order=4)
        assert out.order == 4
        assert all(
            alloc.pool.state[f] == FrameState.ALLOCATED
            for f in range(out.pfn, out.pfn + 16)
        )

    def test_falls_back_to_remote_when_local_exhausted(self):
        tiny = tiny_machine(memory_bytes=4 * MIB)
        alloc = PageAllocator(FramePool(tiny.mapping), tiny.topology)
        task = TaskStruct(tid=1, core=0)
        per_node = alloc.pool.frames_per_node
        seen_nodes = set()
        for _ in range(per_node + 1):
            out = alloc.alloc_pages(task, 0)
            seen_nodes.add(alloc.pool.node_of_frame(out.pfn))
        assert seen_nodes == {0, 1}

    def test_exhaustion_returns_none(self):
        tiny = tiny_machine(memory_bytes=4 * MIB)
        alloc = PageAllocator(FramePool(tiny.mapping), tiny.topology)
        task = TaskStruct(tid=1, core=0)
        total = alloc.pool.num_frames
        for _ in range(total):
            assert alloc.alloc_pages(task, 0) is not None
        assert alloc.alloc_pages(task, 0) is None


class TestColoredPath:
    def test_colored_page_matches_both(self, tiny, alloc):
        mapping = tiny.mapping
        mem = list(mapping.bank_colors_of_node(0))[:8]
        llc = [0]
        task = colored_task(tiny, core=0, mem=mem, llc=llc)
        for _ in range(20):
            out = alloc.alloc_pages(task, 0)
            assert out.colored
            assert int(alloc.pool.bank_color[out.pfn]) in mem
            assert int(alloc.pool.llc_color[out.pfn]) == 0

    def test_mem_only(self, tiny, alloc):
        task = colored_task(tiny, core=0, mem=[2, 3])
        out = alloc.alloc_pages(task, 0)
        assert int(alloc.pool.bank_color[out.pfn]) in (2, 3)

    def test_llc_only_stays_local_until_node_exhausted(self, tiny, alloc):
        task = colored_task(tiny, core=2, llc=[1])  # core 2 -> node 1
        for _ in range(50):
            out = alloc.alloc_pages(task, 0)
            assert int(alloc.pool.llc_color[out.pfn]) == 1
            assert alloc.pool.node_of_frame(out.pfn) == 1

    def test_order_gt_zero_bypasses_coloring(self, tiny, alloc):
        """Paper §III-C: orders greater than zero default to the standard
        buddy allocator."""
        task = colored_task(tiny, core=0, mem=[0], llc=[0])
        out = alloc.alloc_pages(task, order=1)
        assert not out.colored

    def test_colored_exhaustion_returns_none(self, tiny_small):
        alloc = PageAllocator(FramePool(tiny_small.mapping), tiny_small.topology)
        mapping = tiny_small.mapping
        mem = [mapping.compatible_bank_colors(0, node=0)[0]]
        task = colored_task(tiny_small, core=0, mem=mem, llc=[0])
        count = 0
        while True:
            out = alloc.alloc_pages(task, 0)
            if out is None:
                break
            count += 1
        # Exactly the frames of that (bank, llc) combo were available.
        assert count == mapping.frames_per_combo()

    def test_refills_counted(self, tiny, alloc):
        task = colored_task(tiny, core=0, mem=[0], llc=[0])
        out = alloc.alloc_pages(task, 0)
        assert out.refills > 0
        assert alloc.refill_blocks >= out.refills

    def test_leftovers_feed_later_requests(self, tiny, alloc):
        """Frames shattered by one task's refill serve other tasks without
        new refills."""
        mapping = tiny.mapping
        t1 = colored_task(tiny, core=0, mem=[0], llc=list(
            mapping.compatible_llc_colors(0))[:1], tid=1)
        alloc.alloc_pages(t1, 0)
        # Another color of the same node: stock likely present already.
        llc2 = mapping.compatible_llc_colors(1)[0]
        t2 = colored_task(tiny, core=0, mem=[1], llc=[llc2], tid=2)
        out = alloc.alloc_pages(t2, 0)
        assert out is not None


class TestFreePath:
    def test_colored_free_returns_to_color_list(self, tiny, alloc):
        task = colored_task(tiny, core=0, mem=[0])
        out = alloc.alloc_pages(task, 0)
        before = alloc.colors.total_free
        alloc.free_pages(task, out.pfn, 0)
        assert alloc.colors.total_free == before + 1
        assert alloc.pool.state[out.pfn] == FrameState.COLORED_FREE

    def test_uncolored_free_returns_to_buddy(self, tiny, alloc):
        task = TaskStruct(tid=1, core=0)
        out = alloc.alloc_pages(task, 0)
        free_before = alloc.node_buddies[0].free_frames()
        alloc.free_pages(task, out.pfn, 0)
        assert alloc.node_buddies[0].free_frames() == free_before + 1

    def test_free_unallocated_rejected(self, tiny, alloc):
        task = TaskStruct(tid=1, core=0)
        with pytest.raises(ValueError):
            alloc.free_pages(task, 0, 0)

    def test_block_precondition_checks_every_frame_before_mutating(
        self, tiny, alloc
    ):
        task = TaskStruct(tid=1, core=0)
        out = alloc.alloc_pages(task, order=4)
        pool = alloc.pool
        pool.mark_buddy(out.pfn + 9)  # a hole inside the block
        state, owner = pool.state.copy(), pool.owner.copy()
        with pytest.raises(ValueError, match=f"frame {out.pfn + 9} "):
            alloc.free_pages(task, out.pfn, 4)
        with pytest.raises(ValueError, match=f"frame {out.pfn} "):
            pool.mark_range_allocated(out.pfn, out.pfn + 16, owner=2)
        assert (pool.state == state).all() and (pool.owner == owner).all()

    def test_conservation_total(self, tiny, alloc):
        task = colored_task(tiny, core=0, mem=[0, 1], llc=[0, 2])
        total = alloc.pool.num_frames
        outs = [alloc.alloc_pages(task, 0) for _ in range(10)]
        held = len(outs)
        assert alloc.free_frames_total() == total - held
        for out in outs:
            alloc.free_pages(task, out.pfn, 0)
        assert alloc.free_frames_total() == total
