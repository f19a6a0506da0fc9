"""The colored free-page matrix: ``color_list[MEM_ID][LLC_ID]``.

The paper's kernel keeps 128 x 32 color lists next to the buddy free list.
Order-0 frames migrate from buddy blocks into these lists via
``create_color_list`` (Algorithm 2) and are handed to tasks whose TCB
colors match (Algorithm 1).  Frames freed by colored tasks return here.

Pops rotate over the caller's allowed colors so a task with several colors
spreads its pages across them instead of exhausting the first one — the
multi-color analogue of the round-robin the buddy allocator gets for free.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Sequence

from repro.kernel.frame import FramePool


class ColorMatrix:
    """Free lists of order-0 frames indexed by (bank color, LLC color)."""

    def __init__(self, pool: FramePool) -> None:
        self.pool = pool
        # Per-frame colors as memoryviews: a read is a plain int, ~3x
        # cheaper than a numpy scalar.
        self._bank = memoryview(pool.bank_color)
        self._llc = memoryview(pool.llc_color)
        self._lists: dict[tuple[int, int], deque[int]] = {}
        # Non-empty index: mem -> llc colors with available frames, and the
        # reverse.  Values are insertion-ordered dicts used as ordered sets
        # so iteration order (and thus allocation) is deterministic.
        self._llc_of_mem: dict[int, dict[int, None]] = {}
        self._mem_of_llc: dict[int, dict[int, None]] = {}
        self.total_free = 0
        # Rotation cursors so repeated pops cycle through allowed colors.
        self._cursor = 0

    # ------------------------------------------------------------------ push
    def push_frames(self, pfns: Sequence[int]) -> None:
        """Add free order-0 frames, in order, under their (bank, LLC) colors.

        The one way frames enter the color lists: a colored free passes
        one frame, a refill its order-0 misses, and Algorithm 2
        (``create_color_list``) a shattered buddy block's ascending
        ``range``.  Each frame is appended to its bucket, and a bucket
        that was empty joins both non-empty indexes at that point.  The
        double-push check runs on all of ``pfns`` before anything is
        mutated, so a rejected batch leaves the matrix and the pool
        untouched.
        """
        self.pool.mark_frames_colored_free(pfns)
        bank = self._bank
        llc_of = self._llc
        lists = self._lists
        llc_of_mem = self._llc_of_mem
        mem_of_llc = self._mem_of_llc
        for pfn in pfns:
            mem = bank[pfn]
            llc = llc_of[pfn]
            key = (mem, llc)
            bucket = lists.get(key)
            if not bucket:
                # An empty key is missing from both indexes; a non-empty
                # one is already in them.
                if bucket is None:
                    bucket = lists[key] = deque()
                llc_of_mem.setdefault(mem, {})[llc] = None
                mem_of_llc.setdefault(llc, {})[mem] = None
            bucket.append(pfn)
        self.total_free += len(pfns)

    # ------------------------------------------------------------------ pop
    def _pop_key(self, key: tuple[int, int]) -> int:
        bucket = self._lists[key]
        pfn = bucket.popleft()
        if not bucket:
            mem, llc = key
            self._llc_of_mem[mem].pop(llc, None)
            self._mem_of_llc[llc].pop(mem, None)
        self.total_free -= 1
        self.pool.mark_buddy(pfn)  # caller will mark ALLOCATED
        return pfn

    def pop_matching(
        self,
        mem_colors: Sequence[int] | None,
        llc_colors: Sequence[int] | None,
    ) -> int | None:
        """Pop a frame matching the constraints, or None.

        ``mem_colors``/``llc_colors`` are the task's owned color sets; None
        means unconstrained on that axis (paper: only ``using_bank`` or only
        ``using_llc`` set).  At least one must be given.
        """
        if mem_colors is None and llc_colors is None:
            raise ValueError("pop_matching needs at least one constraint")
        self._cursor += 1
        if mem_colors is not None and llc_colors is not None:
            n = len(mem_colors) * len(llc_colors)
            for i in range(n):
                j = (self._cursor + i) % n
                key = (mem_colors[j % len(mem_colors)],
                       llc_colors[j // len(mem_colors)])
                if self._lists.get(key):
                    return self._pop_key(key)
            return None
        if mem_colors is not None:
            for i in range(len(mem_colors)):
                mem = mem_colors[(self._cursor + i) % len(mem_colors)]
                available = self._llc_of_mem.get(mem)
                if available:
                    # Rotate the unconstrained LLC pick too: a MEM-only
                    # task's pages must spread over LLC colors like buddy
                    # pages do, or the constraint would silently shrink
                    # its usable LLC.  The secondary index advances once
                    # per full primary cycle so the two rotations cover
                    # the whole cross product instead of moving in
                    # lockstep.
                    keys = list(available)
                    idx = (self._cursor // max(1, len(mem_colors))) % len(keys)
                    return self._pop_key((mem, keys[idx]))
            return None
        assert llc_colors is not None
        for i in range(len(llc_colors)):
            llc = llc_colors[(self._cursor + i) % len(llc_colors)]
            available = self._mem_of_llc.get(llc)
            if available:
                keys = list(available)
                idx = (self._cursor // max(1, len(llc_colors))) % len(keys)
                return self._pop_key((keys[idx], llc))
        return None

    def has_matching(
        self,
        mem_colors: Iterable[int] | None,
        llc_colors: Iterable[int] | None,
    ) -> bool:
        """Whether any free frame satisfies the constraints."""
        if mem_colors is not None and llc_colors is not None:
            llc_set = set(llc_colors)
            return any(
                llc_set.intersection(self._llc_of_mem.get(mem, ()))
                for mem in mem_colors
            )
        if mem_colors is not None:
            return any(self._llc_of_mem.get(mem) for mem in mem_colors)
        if llc_colors is not None:
            return any(self._mem_of_llc.get(llc) for llc in llc_colors)
        raise ValueError("has_matching needs at least one constraint")

    # ------------------------------------------------------------------ info
    def free_count(self, mem: int, llc: int) -> int:
        bucket = self._lists.get((mem, llc))
        return len(bucket) if bucket else 0

    def free_count_mem(self, mem: int) -> int:
        return sum(
            self.free_count(mem, llc)
            for llc in self._llc_of_mem.get(mem, ())
        )

    def free_count_colors(self, mem_colors: Iterable[int]) -> int:
        """Total free frames across several bank colors (observability
        gauge: one value per node's color-list slice)."""
        return sum(self.free_count_mem(mem) for mem in mem_colors)

    def check_invariants(self) -> None:
        """Assert index consistency (used by property-based tests)."""
        total = 0
        for (mem, llc), bucket in self._lists.items():
            total += len(bucket)
            nonempty = bool(bucket)
            if nonempty != (llc in self._llc_of_mem.get(mem, {})):
                raise AssertionError(f"llc_of_mem index stale at {(mem, llc)}")
            if nonempty != (mem in self._mem_of_llc.get(llc, {})):
                raise AssertionError(f"mem_of_llc index stale at {(mem, llc)}")
            for pfn in bucket:
                if self._bank[pfn] != mem:
                    raise AssertionError(f"frame {pfn} on wrong mem list")
                if self._llc[pfn] != llc:
                    raise AssertionError(f"frame {pfn} on wrong llc list")
        if total != self.total_free:
            raise AssertionError("total_free counter out of sync")
