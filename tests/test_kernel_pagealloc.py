"""Unit tests for Algorithm 1 (colored page selection) and the buddy path."""

import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel.buddy import MAX_ORDER
from repro.kernel.colorlist import ColorMatrix
from repro.kernel.frame import FramePool, FrameState
from repro.kernel.kernel import Kernel
from repro.kernel.pagealloc import PageAllocator
from repro.kernel.task import TaskStruct
from repro.machine.presets import tiny_machine
from repro.util.units import MIB
from tests.test_kernel_colorlist import push_reference


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


# --------------------------------------------------------------------------
# The one-pass order-0 refill against the per-frame loop it replaced.


def _pull_refill_block_reference(self, nodes):
    """The head block of the smallest non-empty order (order 0 included)
    from the first of ``nodes`` that has one."""
    for order in range(0, MAX_ORDER + 1):
        for node in nodes:
            start = self.node_buddies[node].pop_head(order)
            if start is not None:
                return start, order
    return None


def _pop_or_refill_reference(self, task, mem_colors, llc_colors, nodes=None):
    """Algorithm 1's refill one buddy block at a time, each frame filed
    by the per-frame oracle push: what ``_pop_or_refill`` must equal."""
    refills = 0
    pfn = self.colors.pop_matching(mem_colors, llc_colors)
    if pfn is not None:
        return pfn, refills
    if nodes is None:
        per = self.pool.mapping.bank_colors_per_node
        candidates = {color // per for color in mem_colors}
        nodes = tuple(n for n in self._nodes_by_distance[task.core]
                      if n in candidates)
    mem_set = set(mem_colors)
    llc_set = set(llc_colors) if llc_colors is not None else None
    while True:
        block = _pull_refill_block_reference(self, nodes)
        if block is None:
            return None, refills
        start, order = block
        refills += 1
        self.refill_blocks += 1
        if order == 0:
            if int(self.pool.bank_color[start]) in mem_set and (
                llc_set is None
                or int(self.pool.llc_color[start]) in llc_set
            ):
                return start, refills
            push_reference(self.colors, start)
            continue
        for frame in range(start, start + (1 << order)):
            push_reference(self.colors, frame)
        pfn = self.colors.pop_matching(mem_colors, llc_colors)
        if pfn is not None:
            return pfn, refills


def _colors_snapshot(matrix):
    """Pool state and owner, bucket contents and both indexes' key order."""
    return (
        matrix.pool.state.tolist(),
        matrix.pool.owner.tolist(),
        [(key, list(bucket)) for key, bucket in matrix._lists.items()],
        [(m, list(llcs)) for m, llcs in matrix._llc_of_mem.items()],
        [(lc, list(mems)) for lc, mems in matrix._mem_of_llc.items()],
        matrix.total_free,
    )


def _allocator_snapshot(alloc):
    return _colors_snapshot(alloc.colors) + (
        alloc.refill_blocks,
        [[b.blocks(o) for o in range(MAX_ORDER + 1)]
         for b in alloc.node_buddies],
    )


@st.composite
def _refill_script(draw):
    """An aged or pristine 4 MiB tiny machine, uncolored traffic whose
    frees coalesce, then colored requests under every constraint kind."""
    mapping = tiny_machine(memory_bytes=4 * MIB).mapping
    aged = draw(st.booleans())
    age_seed = draw(st.integers(0, 2**16))
    prior = draw(st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.booleans()),
        max_size=30,
    ))
    bank = st.integers(0, mapping.num_bank_colors - 1)
    llc = st.integers(0, mapping.num_llc_colors - 1)
    kinds = st.sampled_from(["mem", "llc", "both"])
    tasks = draw(st.lists(
        st.tuples(st.integers(0, 3), kinds,
                  st.lists(bank, min_size=1, max_size=4, unique=True),
                  st.lists(llc, min_size=1, max_size=2, unique=True)),
        min_size=1, max_size=4,
    ))
    requests = draw(st.lists(
        st.tuples(st.integers(0, len(tasks) - 1), st.booleans()),
        min_size=1, max_size=60,
    ))
    return aged, age_seed, prior, tasks, requests


def _run_refill_script(script, reference):
    aged, age_seed, prior, task_specs, requests = script
    machine = tiny_machine(memory_bytes=4 * MIB)
    kernel = Kernel(machine, aged=aged, age_seed=age_seed)
    alloc = kernel.page_allocator
    if reference:
        alloc._pop_or_refill = types.MethodType(_pop_or_refill_reference, alloc)
    # Uncolored traffic: each free returns a block to the buddy lists,
    # where it coalesces with free neighbours (on an aged node too).
    plain = TaskStruct(tid=99, core=0)
    held = []
    for core, order, free_one in prior:
        plain.core = core
        out = alloc.alloc_pages(plain, order)
        if out is not None:
            held.append((out.pfn, order))
        if free_one and held:
            pfn, o = held.pop(len(held) // 2)
            alloc.free_pages(plain, pfn, o)
    tasks = []
    for tid, (core, kind, mem, llc) in enumerate(task_specs, start=1):
        tasks.append(colored_task(
            machine, core=core, tid=tid,
            mem=mem if kind != "llc" else None,
            llc=llc if kind != "mem" else None,
        ))
    outcomes = []
    taken = []
    for i, free_first in requests:
        if free_first and taken:
            task, pfn = taken.pop(0)
            alloc.free_pages(task, pfn, 0)
        out = alloc.alloc_pages(tasks[i], 0)
        outcomes.append(None if out is None else (out.pfn, out.refills))
        if out is not None:
            taken.append((tasks[i], out.pfn))
    alloc.colors.check_invariants()
    for buddy in alloc.node_buddies:
        buddy.check_invariants()
    return outcomes, _allocator_snapshot(alloc)


class TestBulkRefill:
    @settings(max_examples=60, deadline=None)
    @given(_refill_script())
    def test_bulk_refill_equals_per_frame_loop(self, script):
        assert _run_refill_script(script, reference=False) == (
            _run_refill_script(script, reference=True)
        )

    def test_aged_refill_takes_heads_in_one_pass(self):
        """On an aged node one request examines a run of order-0 heads,
        counts each as a refill and files every miss."""
        machine = tiny_machine(memory_bytes=4 * MIB)
        kernel = Kernel(machine, aged=True, age_seed=3)
        alloc = kernel.page_allocator
        heads = alloc.node_buddies[0].blocks(0)
        mem = [int(alloc.pool.bank_color[heads[0]]) ^ 1]
        task = colored_task(machine, core=0, mem=mem, llc=None)
        out = alloc.alloc_pages(task, 0)
        assert out.pfn == heads[out.refills - 1]
        assert alloc.colors.total_free == out.refills - 1
        assert alloc.node_buddies[0].blocks(0) == heads[out.refills:]


class TestBulkPush:
    @pytest.mark.parametrize("pfns, bad", [
        ([1, 2, 7, 3], 7),   # already on a color list
        ([1, 2, 1, 7], 1),   # listed twice: stops at the second entry
        ([3, 5, 3], 3),
    ])
    def test_push_frames_rejects_before_mutating(self, tiny, pfns, bad):
        matrix = ColorMatrix(FramePool(tiny.mapping))
        matrix.push_frames([7])
        before = _colors_snapshot(matrix)
        with pytest.raises(ValueError, match=f"frame {bad} "):
            matrix.push_frames(pfns)
        assert _colors_snapshot(matrix) == before

