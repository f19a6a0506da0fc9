"""Binary buddy allocator over a contiguous frame range (one per node).

Mirrors Linux's zoned buddy system at the level the paper interacts with
it: per-order FIFO free lists, block splitting on allocation, and buddy
coalescing on free.  The per-CPU page lists ("pcp lists") are absent, as
the paper disables them so order-0 requests hit ``__rmqueue_smallest``
directly.

Each order's free list is a FIFO (a deque) beside one ``start -> order``
index of every free block: appends and head pops like Linux's list
heads, and O(1) removal of a named block during coalescing by lazy
deletion.  A removed block's FIFO entry stays behind as a *stale* entry
(counted per start) until a head pop skips it or the FIFO is compacted.
A dict drained from its head would not do: CPython's iteration scans the
deleted slots from the front on every ``next(iter(d))``, so draining it
by head pops is quadratic, and an aged node drains 16k frames that way.
"""

from __future__ import annotations

from collections import deque

#: Largest block order (2**MAX_ORDER frames), matching Linux's historic 10.
MAX_ORDER = 10

#: Stale FIFO entries an order may carry beyond its live block count
#: before it is compacted (bounds memory under split/coalesce churn).
_STALE_SLACK = 64


class BuddyAllocator:
    """Buddy allocator over frames ``[base, base + num_frames)``.

    Args:
        base: first frame number managed.
        num_frames: count of managed frames; any size is accepted — the
            range is tiled greedily with naturally aligned power-of-two
            blocks (as Linux does for odd-sized zones).
    """

    def __init__(self, base: int, num_frames: int) -> None:
        if num_frames <= 0:
            raise ValueError("num_frames must be positive")
        self.base = base
        self.num_frames = num_frames
        # Per order: the FIFO of block starts (live and stale entries),
        # stale entry counts per start, and the live block count.
        self._fifos: list[deque[int]] = [deque() for _ in range(MAX_ORDER + 1)]
        self._stale: list[dict[int, int]] = [{} for _ in range(MAX_ORDER + 1)]
        self._live = [0] * (MAX_ORDER + 1)
        # start -> order for every free block (validation + coalescing).
        self._block_order: dict[int, int] = {}
        #: set by fragment(): full coalescing no longer expected.
        self.fragmented = False
        self._seed_range(base, base + num_frames)

    def _seed_range(self, start: int, end: int) -> None:
        """Tile [start, end) with maximal naturally aligned blocks."""
        while start < end:
            order = MAX_ORDER
            while order > 0 and (
                start % (1 << order) != 0 or start + (1 << order) > end
            ):
                order -= 1
            self._insert(start, order)
            start += 1 << order

    # ------------------------------------------------------------------ lists
    def _insert(self, start: int, order: int) -> None:
        self._fifos[order].append(start)
        self._block_order[start] = order
        self._live[order] += 1

    def _remove(self, start: int, order: int) -> None:
        """Unlink a named free block; its FIFO entry turns stale."""
        del self._block_order[start]
        self._live[order] -= 1
        stale = self._stale[order]
        stale[start] = stale.get(start, 0) + 1
        fifo = self._fifos[order]
        if len(fifo) > 2 * self._live[order] + _STALE_SLACK:
            live = self.blocks(order)
            fifo.clear()
            fifo.extend(live)
            stale.clear()

    def pop_head(self, order: int) -> int | None:
        """Remove and return the first free block of exactly ``order``.

        This is the primitive Algorithm 1 uses to feed ``create_color_list``
        (it takes the "head page of the buddy set" of order *i*).  Amortized
        O(1): each stale entry it skips was left by one earlier removal.
        """
        live = self._live
        if not live[order]:
            return None
        fifo = self._fifos[order]
        stale = self._stale[order]
        start = fifo.popleft()
        # Every stale entry of a start precedes its live one (a block has
        # at most one live entry, its latest), so while a start still has
        # stale entries the one at the head is one of them.
        while stale and start in stale:
            left = stale.pop(start) - 1
            if left:
                stale[start] = left
            start = fifo.popleft()
        del self._block_order[start]
        live[order] -= 1
        if not live[order]:
            fifo.clear()
            stale.clear()
        return start

    def blocks(self, order: int) -> list[int]:
        """The free blocks of exactly ``order``, head first (the order
        :meth:`pop_head` would hand them out)."""
        stale = dict(self._stale[order])
        out = []
        for start in self._fifos[order]:
            left = stale.get(start)
            if left:
                stale[start] = left - 1
            else:
                out.append(start)
        return out

    # ------------------------------------------------------------------ alloc
    def alloc(self, order: int) -> int | None:
        """Allocate a naturally aligned block of ``2**order`` frames.

        Splits a larger block if needed (``expand`` in Linux).  Returns the
        first frame number, or None when no block of sufficient order is
        free.
        """
        if not 0 <= order <= MAX_ORDER:
            raise ValueError(f"order {order} out of range [0, {MAX_ORDER}]")
        for current in range(order, MAX_ORDER + 1):
            start = self.pop_head(current)
            if start is None:
                continue
            # Split down: return halves to the free lists.
            while current > order:
                current -= 1
                buddy = start + (1 << current)
                self._insert(buddy, current)
            return start
        return None

    # ------------------------------------------------------------------ free
    def free(self, start: int, order: int) -> None:
        """Return a block, coalescing with its buddy while possible."""
        if not 0 <= order <= MAX_ORDER:
            raise ValueError(f"order {order} out of range")
        if not (self.base <= start and start + (1 << order) <= self.base + self.num_frames):
            raise ValueError(f"block [{start}, +2^{order}) outside managed range")
        if start % (1 << order) != 0:
            raise ValueError(f"block start {start} not aligned to order {order}")
        if self._overlaps_free(start, order):
            raise ValueError(f"double free of block at frame {start}")
        while order < MAX_ORDER:
            buddy = start ^ (1 << order)
            # A free buddy is in range: free blocks only ever are.
            if self._block_order.get(buddy) != order:
                break
            self._remove(buddy, order)
            start = min(start, buddy)
            order += 1
        self._insert(start, order)

    def _overlaps_free(self, start: int, order: int) -> bool:
        """Detect overlap between [start, start+2^order) and any free block."""
        # Any enclosing aligned block that is free covers `start`.
        for o in range(MAX_ORDER + 1):
            aligned = start - (start % (1 << o))
            if self._block_order.get(aligned) == o and aligned <= start < aligned + (1 << o):
                return True
        # Any free block starting inside our range overlaps too.
        size = 1 << order
        for inner in range(start, start + size):
            if inner in self._block_order:
                return True
        return False

    # ------------------------------------------------------------------ aging
    def fragment(self, order: list[int] | None = None) -> None:
        """Shatter all free memory into order-0 frames, optionally in a
        caller-provided order.

        Models an *aged* system: after real uptime, buddy free lists hold
        effectively random frames rather than pristine contiguous blocks,
        so consecutive allocations land in unrelated banks and LLC colors.
        The paper's experiments (and any real deployment) run on such a
        system; pristine power-of-two adjacency is a boot-only artefact.

        Args:
            order: permutation of the currently free frame numbers giving
                the order they should be handed out; None keeps address
                order.  Coalescing on free still works afterwards.
        """
        free: list[int] = []
        for o in range(MAX_ORDER + 1):
            for start in self.blocks(o):
                free.extend(range(start, start + (1 << o)))
        frames = free if order is None else list(order)
        index = dict.fromkeys(frames, 0)
        # A permutation: no repeats, as many frames as are free, and every
        # free frame among them (the free frames are distinct).
        if order is not None and not (
            len(index) == len(frames) == len(free)
            and all(map(index.__contains__, free))
        ):
            raise ValueError("fragment order must permute the free frames")
        for o in range(MAX_ORDER + 1):
            self._fifos[o].clear()
            self._stale[o].clear()
            self._live[o] = 0
        self._fifos[0].extend(frames)
        self._live[0] = len(frames)
        self._block_order = index
        self.fragmented = True

    # ------------------------------------------------------------------ info
    def free_frames(self) -> int:
        """Total frames currently on free lists."""
        return sum(live << order for order, live in enumerate(self._live))

    def free_blocks(self, order: int) -> int:
        return self._live[order]

    def largest_free_order(self) -> int | None:
        for order in range(MAX_ORDER, -1, -1):
            if self._live[order]:
                return order
        return None

    def check_invariants(self) -> None:
        """Assert structural invariants (used by property-based tests)."""
        seen: set[int] = set()
        for order in range(MAX_ORDER + 1):
            bucket = self.blocks(order)
            if len(bucket) != self._live[order]:
                raise AssertionError(f"live count out of sync at order {order}")
            if len(self._fifos[order]) != len(bucket) + sum(
                self._stale[order].values()
            ):
                raise AssertionError(f"stale count out of sync at order {order}")
            for start in bucket:
                if start % (1 << order) != 0:
                    raise AssertionError(f"misaligned block {start} order {order}")
                if self._block_order.get(start) != order:
                    raise AssertionError("block index out of sync")
                frames = set(range(start, start + (1 << order)))
                if frames & seen:
                    raise AssertionError("overlapping free blocks")
                seen |= frames
                # Fully coalesced: buddy of a free block must not be free
                # at the same order (unless the allocator was deliberately
                # fragmented).
                buddy = start ^ (1 << order)
                if (
                    not self.fragmented
                    and order < MAX_ORDER
                    and self._block_order.get(buddy) == order
                ):
                    raise AssertionError(
                        f"uncoalesced buddies at {start}/{buddy} order {order}"
                    )
        if len(self._block_order) != sum(self._live):
            raise AssertionError("block index size mismatch")
