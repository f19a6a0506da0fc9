"""Unit + property tests for the binary buddy allocator."""

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel import buddy as buddy_module
from repro.kernel.buddy import MAX_ORDER, BuddyAllocator


class TestBasics:
    def test_initial_free_frames(self):
        b = BuddyAllocator(base=0, num_frames=4096)
        assert b.free_frames() == 4096

    def test_alloc_free_roundtrip(self):
        b = BuddyAllocator(0, 4096)
        pfn = b.alloc(0)
        assert pfn is not None
        assert b.free_frames() == 4095
        b.free(pfn, 0)
        assert b.free_frames() == 4096

    def test_alignment(self):
        b = BuddyAllocator(0, 4096)
        for order in range(MAX_ORDER + 1):
            pfn = b.alloc(order)
            assert pfn % (1 << order) == 0
            b.free(pfn, order)

    def test_split_produces_buddies(self):
        b = BuddyAllocator(0, 1 << MAX_ORDER)
        b.alloc(0)
        # One page taken from one max block: every lower order has a buddy.
        for order in range(MAX_ORDER):
            assert b.free_blocks(order) == 1

    def test_coalescing_restores_max_order(self):
        b = BuddyAllocator(0, 1 << MAX_ORDER)
        pfns = [b.alloc(0) for _ in range(8)]
        for pfn in pfns:
            b.free(pfn, 0)
        assert b.largest_free_order() == MAX_ORDER
        assert b.free_blocks(MAX_ORDER) == 1

    def test_exhaustion_returns_none(self):
        b = BuddyAllocator(0, 4)
        assert b.alloc(2) is not None
        assert b.alloc(0) is None

    def test_nonzero_base(self):
        b = BuddyAllocator(base=1 << 20, num_frames=2048)
        pfn = b.alloc(3)
        assert pfn >= 1 << 20
        b.free(pfn, 3)
        b.check_invariants()

    def test_odd_sized_range_tiled(self):
        b = BuddyAllocator(0, 1000)  # not a power of two
        assert b.free_frames() == 1000
        b.check_invariants()


class TestErrors:
    def test_double_free_detected(self):
        b = BuddyAllocator(0, 64)
        pfn = b.alloc(0)
        b.free(pfn, 0)
        with pytest.raises(ValueError, match="double free"):
            b.free(pfn, 0)

    def test_free_inside_free_block(self):
        b = BuddyAllocator(0, 64)
        with pytest.raises(ValueError, match="double free"):
            b.free(8, 0)  # never allocated

    def test_misaligned_free(self):
        b = BuddyAllocator(0, 64)
        with pytest.raises(ValueError, match="aligned"):
            b.free(1, 1)

    def test_out_of_range_free(self):
        b = BuddyAllocator(0, 64)
        with pytest.raises(ValueError, match="outside"):
            b.free(64, 0)

    def test_bad_order(self):
        b = BuddyAllocator(0, 64)
        with pytest.raises(ValueError):
            b.alloc(MAX_ORDER + 1)


class TestPopHead:
    def test_fifo_order(self):
        b = BuddyAllocator(0, 4 << MAX_ORDER)
        first = b.pop_head(MAX_ORDER)
        second = b.pop_head(MAX_ORDER)
        assert first == 0
        assert second == 1 << MAX_ORDER

    def test_empty_order(self):
        b = BuddyAllocator(0, 1 << MAX_ORDER)
        assert b.pop_head(0) is None


class TestFragment:
    def test_fragment_to_singles(self):
        b = BuddyAllocator(0, 256)
        b.fragment()
        assert b.free_blocks(0) == 256
        assert b.free_frames() == 256
        b.check_invariants()

    def test_fragment_with_order(self):
        b = BuddyAllocator(0, 16)
        b.fragment(order=list(reversed(range(16))))
        assert b.pop_head(0) == 15

    def test_fragment_order_must_permute(self):
        b = BuddyAllocator(0, 16)
        with pytest.raises(ValueError):
            b.fragment(order=[0, 0, 1])

    def test_alloc_after_fragment(self):
        b = BuddyAllocator(0, 64)
        b.fragment()
        seen = {b.alloc(0) for _ in range(64)}
        assert len(seen) == 64
        assert b.alloc(0) is None


@st.composite
def alloc_free_script(draw):
    """A random interleaving of allocs (by order) and frees (by index)."""
    return draw(
        st.lists(
            st.tuples(st.sampled_from(["alloc", "free"]), st.integers(0, 6)),
            min_size=1,
            max_size=120,
        )
    )


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(alloc_free_script())
    def test_no_overlap_and_conservation(self, script):
        b = BuddyAllocator(0, 1024)
        live: dict[int, int] = {}  # pfn -> order
        for op, arg in script:
            if op == "alloc":
                order = arg % (MAX_ORDER + 1)
                pfn = b.alloc(order)
                if pfn is not None:
                    # No overlap with any live allocation.
                    new = set(range(pfn, pfn + (1 << order)))
                    for lp, lo in live.items():
                        assert not new & set(range(lp, lp + (1 << lo)))
                    live[pfn] = order
            elif live:
                pfn = sorted(live)[arg % len(live)]
                b.free(pfn, live.pop(pfn))
            # Conservation: free + live == total.
            held = sum(1 << o for o in live.values())
            assert b.free_frames() + held == 1024
        b.check_invariants()

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, MAX_ORDER), min_size=1, max_size=40))
    def test_free_all_restores_full_coalescing(self, orders):
        b = BuddyAllocator(0, 1 << MAX_ORDER)
        allocated = []
        for order in orders:
            pfn = b.alloc(order)
            if pfn is not None:
                allocated.append((pfn, order))
        for pfn, order in allocated:
            b.free(pfn, order)
        assert b.free_frames() == 1 << MAX_ORDER
        assert b.free_blocks(MAX_ORDER) == 1
        b.check_invariants()


# --------------------------------------------------------------------------
# FIFO order against a list-based model.


class ListBuddy:
    """The buddy allocator with plain lists as its per-order FIFOs: head
    pops are ``pop(0)``, named removals ``remove``.  Slow and obviously
    ordered — the model the real free lists must pop like."""

    def __init__(self, base: int, num_frames: int) -> None:
        self.base, self.end = base, base + num_frames
        self.lists: list[list[int]] = [[] for _ in range(MAX_ORDER + 1)]
        self.order_of: dict[int, int] = {}
        start = base
        while start < self.end:
            order = MAX_ORDER
            while order > 0 and (start % (1 << order) or start + (1 << order) > self.end):
                order -= 1
            self._insert(start, order)
            start += 1 << order

    def _insert(self, start, order):
        self.lists[order].append(start)
        self.order_of[start] = order

    def _remove(self, start, order):
        self.lists[order].remove(start)
        del self.order_of[start]

    def pop_head(self, order):
        if not self.lists[order]:
            return None
        start = self.lists[order][0]
        self._remove(start, order)
        return start

    def alloc(self, order):
        for current in range(order, MAX_ORDER + 1):
            start = self.pop_head(current)
            if start is None:
                continue
            while current > order:
                current -= 1
                self._insert(start + (1 << current), current)
            return start
        return None

    def free(self, start, order):
        while order < MAX_ORDER:
            buddy = start ^ (1 << order)
            if self.order_of.get(buddy) != order or not (
                self.base <= buddy and buddy + (1 << order) <= self.end
            ):
                break
            self._remove(buddy, order)
            start = min(start, buddy)
            order += 1
        self._insert(start, order)

    def fragment(self, order):
        self.lists = [list(order)] + [[] for _ in range(MAX_ORDER)]
        self.order_of = dict.fromkeys(order, 0)


@st.composite
def fifo_script(draw):
    """Random alloc / free / pop_head / fragment steps (by order, index
    and shuffle seed)."""
    step = st.tuples(
        st.sampled_from(["alloc", "alloc", "free", "free", "pop", "fragment"]),
        st.integers(0, MAX_ORDER),
        st.integers(0, 2**16),
    )
    # Start aged half the time: long shuffled order-0 FIFOs whose frees
    # coalesce with neighbours anywhere in them, leaving stale entries
    # that later head pops must skip.
    aged = draw(st.booleans())
    return [("fragment", 0, draw(st.integers(0, 2**16)) * 4)] * aged + draw(
        st.lists(step, min_size=1, max_size=250)
    )


def _run_fifo_script(b, model, script):
    held: list[tuple[int, int]] = []
    for op, order, arg in script:
        if op == "alloc" or op == "pop":
            order %= 3
            got = b.alloc(order) if op == "alloc" else b.pop_head(order)
            want = model.alloc(order) if op == "alloc" else model.pop_head(order)
            assert got == want
            if got is not None:
                held.append((got, order))
        elif op == "free" and held:
            pfn, o = held.pop(arg % len(held))
            b.free(pfn, o)
            model.free(pfn, o)
        elif op == "fragment" and arg % 4 == 0:
            free = [f for o, bucket in enumerate(model.lists)
                    for s in bucket for f in range(s, s + (1 << o))]
            random.Random(arg).shuffle(free)
            b.fragment(free)
            model.fragment(free)
        for o in range(MAX_ORDER + 1):
            assert b.blocks(o) == model.lists[o]
            assert b.free_blocks(o) == len(model.lists[o])
    b.check_invariants()


class TestFifoOrder:
    @pytest.mark.parametrize("frames", [16, 64])
    @pytest.mark.parametrize("slack", [0, buddy_module._STALE_SLACK])
    @settings(max_examples=40, deadline=None)
    @given(fifo_script())
    def test_pops_follow_list_model(self, slack, frames, script):
        # Slack 0 compacts a FIFO as soon as its stale entries outnumber
        # its live blocks, so short scripts cross many compactions; 16
        # frames churn hard enough to stack stale entries of one block.
        with mock.patch.object(buddy_module, "_STALE_SLACK", slack):
            _run_fifo_script(
                BuddyAllocator(0, frames), ListBuddy(0, frames), script
            )

    @pytest.mark.parametrize("slack", [0, 4])
    def test_aged_churn_follows_list_model(self, slack):
        """Seeded churn on a shuffled 16-frame node: frees coalesce inside
        the FIFO, a block's stale entries stack up, compactions run."""
        for seed in range(30):
            rng = random.Random(seed)
            script = [("fragment", 0, 4 * seed)] + [
                (rng.choice(["alloc", "pop", "free", "free"]),
                 rng.choice([0, 0, 0, 1]), rng.randrange(64))
                for _ in range(120)
            ]
            b, model = BuddyAllocator(0, 16), ListBuddy(0, 16)
            with mock.patch.object(buddy_module, "_STALE_SLACK", slack):
                _run_fifo_script(b, model, script)

    def test_churn_stays_bounded_and_ordered(self):
        """Split/coalesce churn leaves stale entries at every order below
        the split; compaction keeps them bounded and the order exact."""
        b, model = BuddyAllocator(0, 1 << MAX_ORDER), ListBuddy(0, 1 << MAX_ORDER)
        keep = b.alloc(2)
        assert keep == model.alloc(2)
        for _ in range(500):
            pfn = b.alloc(0)
            assert pfn == model.alloc(0)
            b.free(pfn, 0)
            model.free(pfn, 0)
        for o in range(MAX_ORDER + 1):
            assert b.blocks(o) == model.lists[o]
            assert len(b._fifos[o]) <= 2 * b.free_blocks(o) + buddy_module._STALE_SLACK + 1
        b.check_invariants()

    def test_drain_of_aged_node_pops_in_order(self):
        """Draining 16k shuffled frames by head pops hands them out in
        the aging order and leaves the FIFO empty."""
        b = BuddyAllocator(0, 1 << 14)
        order = list(range(1 << 14))
        random.Random(0).shuffle(order)
        b.fragment(order)
        assert [b.pop_head(0) for _ in order] == order
        assert b.pop_head(0) is None and len(b._fifos[0]) == 0


class TestFragmentRejects:
    @pytest.mark.parametrize("bad", [
        "duplicate", "missing", "extra", "not_free",
    ])
    def test_non_permutation_rejected_untouched(self, bad):
        b = BuddyAllocator(0, 64)
        taken = b.alloc(0)
        free = [f for f in range(64) if f != taken]
        order = {
            "duplicate": free[:-1] + [free[0]],
            "missing": free[:-1],
            "extra": free + [taken],
            "not_free": free[:-1] + [taken],
        }[bad]
        before = [b.blocks(o) for o in range(MAX_ORDER + 1)]
        with pytest.raises(ValueError, match="permute the free frames"):
            b.fragment(order)
        assert [b.blocks(o) for o in range(MAX_ORDER + 1)] == before
        assert not b.fragmented
        b.check_invariants()
