"""Unit + property tests for the colored free-page matrix."""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel.colorlist import ColorMatrix
from repro.kernel.frame import FramePool, FrameState
from repro.machine.presets import tiny_machine


@pytest.fixture
def pool(tiny):
    return FramePool(tiny.mapping)


@pytest.fixture
def matrix(pool):
    return ColorMatrix(pool)


def push_reference(matrix, pfn):
    """File one free frame under its (bank, LLC) colors, the per-frame
    step of Algorithm 2: the oracle ``ColorMatrix.push_frames`` must
    equal on each frame in turn."""
    pool = matrix.pool
    if pool.state[pfn] == FrameState.COLORED_FREE:
        raise ValueError(f"frame {pfn} already on a color list")
    pool.state[pfn] = FrameState.COLORED_FREE
    pool.owner[pfn] = -1
    mem = int(pool.bank_color[pfn])
    llc = int(pool.llc_color[pfn])
    matrix._lists.setdefault((mem, llc), deque()).append(pfn)
    matrix._llc_of_mem.setdefault(mem, {})[llc] = None
    matrix._mem_of_llc.setdefault(llc, {})[mem] = None
    matrix.total_free += 1


def find_frame(pool, mem=None, llc=None, exclude=()):
    for pfn in range(pool.num_frames):
        if pfn in exclude:
            continue
        if mem is not None and pool.bank_color[pfn] != mem:
            continue
        if llc is not None and pool.llc_color[pfn] != llc:
            continue
        return pfn
    raise AssertionError("no frame with requested colors")


class TestPushPop:
    def test_push_then_pop_exact(self, pool, matrix):
        pfn = find_frame(pool, mem=3)
        llc = int(pool.llc_color[pfn])
        matrix.push_frames([pfn])
        assert matrix.total_free == 1
        got = matrix.pop_matching([3], [llc])
        assert got == pfn
        assert matrix.total_free == 0

    def test_pop_respects_mem_constraint(self, pool, matrix):
        pfn = find_frame(pool, mem=3)
        matrix.push_frames([pfn])
        assert matrix.pop_matching([4], None) is None
        assert matrix.pop_matching([3], None) == pfn

    def test_pop_respects_llc_constraint(self, pool, matrix):
        pfn = find_frame(pool, llc=1)
        matrix.push_frames([pfn])
        assert matrix.pop_matching(None, [0]) is None
        assert matrix.pop_matching(None, [1]) == pfn

    def test_pop_both_constraints_must_match_jointly(self, pool, matrix):
        a = find_frame(pool, mem=0)
        llc_a = int(pool.llc_color[a])
        other_llc = (llc_a + 1) % pool.mapping.num_llc_colors
        matrix.push_frames([a])
        assert matrix.pop_matching([0], [other_llc]) is None
        assert matrix.pop_matching([0], [llc_a]) == a

    def test_pop_requires_some_constraint(self, matrix):
        with pytest.raises(ValueError):
            matrix.pop_matching(None, None)

    def test_push_updates_frame_state(self, pool, matrix):
        matrix.push_frames([0])
        assert pool.state[0] == FrameState.COLORED_FREE

    def test_double_push_rejected(self, pool, matrix):
        matrix.push_frames([0])
        with pytest.raises(ValueError):
            matrix.push_frames([0])


class TestRotation:
    def test_pops_rotate_across_colors(self, pool, matrix):
        """A task with several colors should receive pages spread over
        them, not drain one list first."""
        mem_colors = [0, 1]
        for mc in mem_colors:
            for _ in range(4):
                pfn = find_frame(
                    pool, mem=mc,
                    exclude={p for b in matrix._lists.values() for p in b},
                )
                matrix.push_frames([pfn])
        got_colors = [
            int(pool.bank_color[matrix.pop_matching(mem_colors, None)])
            for _ in range(4)
        ]
        assert set(got_colors) == {0, 1}


class TestPreference:
    def test_preference_falls_back_to_any(self, pool, matrix):
        """An LLC-only pop takes a matching frame from any node: node
        preference is the page allocator's nearest-first walk, not the
        matrix's."""
        llc = 0
        remote = find_frame(pool, mem=16, llc=llc)
        matrix.push_frames([remote])
        assert matrix.pop_matching(None, [llc]) == remote


class TestHasMatching:
    def test_has_matching_all_modes(self, pool, matrix):
        pfn = find_frame(pool, mem=2)
        llc = int(pool.llc_color[pfn])
        matrix.push_frames([pfn])
        assert matrix.has_matching([2], None)
        assert matrix.has_matching(None, [llc])
        assert matrix.has_matching([2], [llc])
        assert not matrix.has_matching([3], None)
        assert not matrix.has_matching([2], [(llc + 1) % 4])


class TestPropertyBased:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(0, 500), min_size=1, max_size=80, unique=True))
    def test_push_pop_conserves_and_indexes_stay_consistent(self, pfns):
        pool = FramePool(tiny_machine().mapping)
        matrix = ColorMatrix(pool)
        for pfn in pfns:
            matrix.push_frames([pfn])
        matrix.check_invariants()
        popped = []
        while True:
            pfn = matrix.pop_matching(
                list(range(pool.mapping.num_bank_colors)), None
            )
            if pfn is None:
                break
            popped.append(pfn)
        assert sorted(popped) == sorted(pfns)
        matrix.check_invariants()

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.integers(0, 500), min_size=1, max_size=60, unique=True),
        st.integers(0, 31),
    )
    def test_pop_returns_only_requested_colors(self, pfns, mem_color):
        pool = FramePool(tiny_machine().mapping)
        matrix = ColorMatrix(pool)
        for pfn in pfns:
            matrix.push_frames([pfn])
        while True:
            pfn = matrix.pop_matching([mem_color], None)
            if pfn is None:
                break
            assert int(pool.bank_color[pfn]) == mem_color
        matrix.check_invariants()


def _snapshot(matrix):
    pool = matrix.pool
    return (
        pool.state.copy(),
        pool.owner.copy(),
        [(key, list(bucket)) for key, bucket in matrix._lists.items()],
        [(m, list(llcs)) for m, llcs in matrix._llc_of_mem.items()],
        [(lc, list(mems)) for lc, mems in matrix._mem_of_llc.items()],
        matrix.total_free,
    )


def _assert_same(a, b):
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])
    assert a[2:] == b[2:]


@st.composite
def _block_and_prestate(draw):
    """A (start, order) block in the first 2048 frames of the tiny
    machine, plus a script of operations building the pre-state."""
    order = draw(st.integers(0, 7))
    start = draw(st.integers(0, (2048 >> order) - 1)) << order
    block = range(start, start + (1 << order))
    outside = st.integers(0, 2047).filter(lambda p: p not in block)
    prefill = draw(st.lists(outside, max_size=40, unique=True))
    pops = draw(st.lists(st.integers(0, 31), max_size=20))
    readd = draw(st.integers(0, 20))
    allocated = draw(st.lists(st.integers(0, 2047), max_size=20, unique=True))
    return start, order, prefill, pops, readd, allocated


def _build_prestate(prefill, pops, readd, allocated):
    pool = FramePool(tiny_machine().mapping)
    matrix = ColorMatrix(pool)
    for pfn in prefill:
        matrix.push_frames([pfn])
    popped = []
    for mem in pops:
        pfn = matrix.pop_matching([mem], None)
        if pfn is not None:
            popped.append(pfn)
    # Re-adding popped frames re-creates keys an earlier pop emptied.
    for pfn in popped[:readd]:
        matrix.push_frames([pfn])
    for pfn in allocated:
        if pool.state[pfn] != FrameState.COLORED_FREE:
            pool.mark_allocated(pfn, owner=7)
    return matrix


class TestPushFramesOracle:
    @settings(max_examples=60, deadline=None)
    @given(_block_and_prestate())
    def test_range_push_equals_loop_of_push_reference(self, case):
        """Shattering a buddy block (Algorithm 2) files its ascending
        range exactly as the per-frame oracle does."""
        start, order, *script = case
        reference = _build_prestate(*script)
        bulk = _build_prestate(*script)
        _assert_same(_snapshot(reference), _snapshot(bulk))
        block = range(start, start + (1 << order))
        for pfn in block:
            push_reference(reference, pfn)
        bulk.push_frames(block)
        _assert_same(_snapshot(reference), _snapshot(bulk))
        bulk.check_invariants()

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 7), st.data())
    def test_colored_free_frame_in_range_rejected_untouched(self, order, data):
        start = data.draw(st.integers(0, (2048 >> order) - 1)) << order
        inside = start + data.draw(st.integers(0, (1 << order) - 1))
        outside = data.draw(st.lists(
            st.integers(0, 2047).filter(
                lambda p: not start <= p < start + (1 << order)),
            max_size=10, unique=True,
        ))
        pool = FramePool(tiny_machine().mapping)
        matrix = ColorMatrix(pool)
        for pfn in outside + [inside]:
            matrix.push_frames([pfn])
        before = _snapshot(matrix)
        with pytest.raises(ValueError, match=f"frame {inside} "):
            matrix.push_frames(range(start, start + (1 << order)))
        _assert_same(before, _snapshot(matrix))
