"""Colored page selection — the paper's Algorithm 1 around the buddy core.

``alloc_pages(task, order)``:

* order > 0, or an uncolored task: plain buddy allocation
  (``normal_buddy_alloc``), local node first with nearest-node fallback —
  Linux's default zonelist order.
* order == 0 and the task has ``using_bank``/``using_llc`` set: serve from
  ``color_list[MEM_ID][LLC_ID]``; while empty, pull the head buddy block of
  increasing order and shatter it into the color lists
  (``create_color_list``, Algorithm 2), then retry.  When no block can
  yield a matching page: return None ("no more page of this color").

Colored refills pull **only from nodes that can produce matching colors**:
a bank-color constraint pins the node set directly; an LLC-only constraint
starts at the task's local node (every node yields every LLC color).  This
keeps refills bounded while remaining faithful — the paper's single global
free list walk would visit the same blocks in a different order.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.faultline import hooks as _fault_hooks
from repro.kernel.buddy import MAX_ORDER, BuddyAllocator
from repro.kernel.colorlist import ColorMatrix
from repro.kernel.frame import FramePool, FrameState
from repro.kernel.task import TaskStruct
from repro.machine.topology import MachineTopology
from repro.obs.observer import NULL_OBSERVER, BaseObserver

_ALLOCATED = int(FrameState.ALLOCATED)


@dataclass(frozen=True)
class AllocOutcome:
    """Result of one ``alloc_pages`` call.

    Attributes:
        pfn: first frame of the allocated block.
        order: block order (0 for colored pages).
        colored: whether the colored path served it.
        refills: buddy blocks shattered into color lists by this call —
            the source of the paper's higher first-allocation overhead.
    """

    pfn: int
    order: int
    colored: bool
    refills: int


class PageAllocator:
    """The kernel's page allocation front-end (buddy + color lists)."""

    def __init__(
        self,
        pool: FramePool,
        topology: MachineTopology,
        observer: BaseObserver = NULL_OBSERVER,
    ) -> None:
        self.pool = pool
        self.topology = topology
        # Event timestamps come from ``observer.now`` (the engine keeps
        # it current while tracing); the allocator has no clock of its own.
        self.obs = observer
        self._obs_enabled = observer.enabled
        self.colors = ColorMatrix(pool)
        self._bank_color = memoryview(pool.bank_color)
        self._llc_color = memoryview(pool.llc_color)
        per_node = pool.frames_per_node
        num_nodes = pool.mapping.num_nodes
        self.node_buddies = [
            BuddyAllocator(node * per_node, per_node)
            for node in range(num_nodes)
        ]
        # The topology is immutable: rank every node by distance from each
        # core once.  The sort is stable over ascending node ids, so ties
        # break by node id, and filtering an order keeps it for any subset.
        self._nodes_by_distance = [
            tuple(sorted(range(num_nodes),
                         key=lambda n, c=core: topology.hops(c, n)))
            for core in range(topology.num_cores)
        ]
        self._node_bank_colors = [
            list(pool.mapping.bank_colors_of_node(node))
            for node in range(num_nodes)
        ]
        # Stats.
        self.colored_allocs = 0
        self.normal_allocs = 0
        self.refill_blocks = 0
        self.failed_colored = 0

    # ------------------------------------------------------------------ public
    def alloc_pages(self, task: TaskStruct, order: int = 0) -> AllocOutcome | None:
        """Algorithm 1 entry point; returns None when memory is exhausted.

        The ``kernel.pagealloc.exhaust`` faultline site (scoped per task
        and allocation ordinal) simulates frame-pool exhaustion by
        returning None here, so the kernel's real
        ``OutOfMemory``/``OutOfColoredMemory`` handling is what runs.
        """
        if _fault_hooks.should_fire(
            "kernel.pagealloc.exhaust", f"t{task.tid}#a{task.pages_allocated}"
        ):
            self.failed_colored += task.colored
            return None
        if order == 0 and (task.using_bank or task.using_llc):
            return self._alloc_colored(task)
        pfn = self._normal_buddy_alloc(task, order)
        if pfn is None:
            return None
        self._mark_block_allocated(pfn, order, task)
        self.normal_allocs += 1
        return AllocOutcome(pfn=pfn, order=order, colored=False, refills=0)

    def free_pages(self, task: TaskStruct, pfn: int, order: int = 0) -> None:
        """Release a block.

        Pages freed by colored tasks go back to the corresponding colored
        free lists (paper §III-C); everything else returns to the buddy.
        """
        if order:
            self.pool.mark_range_freed(pfn, pfn + (1 << order))
        elif self.pool.state[pfn] != _ALLOCATED:
            raise ValueError(f"freeing non-allocated frame {pfn}")
        else:
            self.pool.mark_buddy(pfn)  # reset state before push validates
        task.pages_freed += 1 << order
        if order == 0 and (task.using_bank or task.using_llc):
            self.colors.push_frames((pfn,))
            if self._obs_enabled:
                self.obs.instant(
                    "kernel.free.colored", self.obs.now, track="kernel",
                    tid=task.tid, args={"pfn": pfn},
                )
            return
        node = self.pool.node_of_frame(pfn)
        self.node_buddies[node].free(pfn, order)

    # ------------------------------------------------------------------ colored
    def _alloc_colored(self, task: TaskStruct) -> AllocOutcome | None:
        mem_c = task.mem_constraint()
        llc_c = task.llc_constraint()
        refills = 0

        if mem_c is not None:
            pfn, refills = self._pop_or_refill(task, mem_c, llc_c)
        else:
            # LLC-only coloring: no bank constraint.  Like Linux's
            # zone-local allocation, exhaust the local node (including
            # refilling from its buddy lists) before taking remote frames —
            # locality is then best-effort, not guaranteed, which is
            # precisely what MEM coloring adds on top.
            pfn = None
            for node in self._nodes_by_distance[task.core]:
                pfn, extra = self._pop_or_refill(
                    task, self._node_bank_colors[node], llc_c,
                    nodes=(node,),
                )
                refills += extra
                if pfn is not None:
                    break

        if pfn is None:
            self.failed_colored += 1
            if self._obs_enabled:
                self.obs.instant(
                    "kernel.alloc.failed", self.obs.now, track="kernel",
                    tid=task.tid,
                    args={"mem_colors": list(task.mem_colors),
                          "llc_colors": list(task.llc_colors)},
                )
            return None
        self.pool.mark_allocated(pfn, task.tid)
        task.pages_allocated += 1
        task.colored_allocations += 1
        task.color_list_refills += refills
        self.colored_allocs += 1
        if self._obs_enabled:
            obs = self.obs
            obs.instant(
                "kernel.alloc.colored", obs.now, track="kernel",
                tid=task.tid,
                args={"pfn": pfn,
                      "bank_color": int(self.pool.bank_color[pfn]),
                      "llc_color": int(self.pool.llc_color[pfn]),
                      "refills": refills},
            )
            if refills:
                # A spill: buddy blocks were shattered into the color
                # lists to satisfy this request (Algorithm 2).
                obs.instant(
                    "kernel.color.refill", obs.now, track="kernel",
                    tid=task.tid, args={"blocks": refills},
                )
        return AllocOutcome(pfn=pfn, order=0, colored=True, refills=refills)

    def _pop_or_refill(
        self,
        task: TaskStruct,
        mem_colors: list[int],
        llc_colors: list[int] | None,
        nodes: tuple[int, ...] | None = None,
    ) -> tuple[int | None, int]:
        """Pop a matching frame, refilling color lists from buddy blocks
        (Algorithm 2) until one matches or the candidate nodes run dry.

        Refills pull from ``nodes``; by default, every node owning one of
        ``mem_colors``, nearest to the task's core first.  They take the
        head block of the smallest non-empty order from the first node
        that has one, and each block taken counts as one refill.

        Order-0 heads (the common case on an aged system) come first: one
        pass over each node's order-0 heads in turn, checking each frame
        against the constraints until one matches.  The frames that do
        not match are filed into the color lists for later requesters, in
        one bulk push after the pass.  Larger blocks are shattered into
        the color lists whole (:meth:`_pull_refill_block`), then popped
        from.
        """
        pfn = self.colors.pop_matching(mem_colors, llc_colors)
        if pfn is not None:
            return pfn, 0
        if nodes is None:
            per = self.pool.mapping.bank_colors_per_node
            candidates = {color // per for color in mem_colors}
            nodes = tuple(n for n in self._nodes_by_distance[task.core]
                          if n in candidates)
        mem_set = set(mem_colors)
        llc_set = set(llc_colors) if llc_colors is not None else None
        bank = self._bank_color
        llc = self._llc_color
        misses: list[int] = []
        for node in nodes:
            pop_head = self.node_buddies[node].pop_head
            while (start := pop_head(0)) is not None:
                if bank[start] in mem_set and (
                    llc_set is None or llc[start] in llc_set
                ):
                    pfn = start
                    break
                misses.append(start)
            if pfn is not None:
                break
        refills = len(misses) + (pfn is not None)
        self.refill_blocks += refills
        if misses:
            self.colors.push_frames(misses)
        while pfn is None:
            block = self._pull_refill_block(nodes)
            if block is None:
                break
            refills += 1
            self.refill_blocks += 1
            # Algorithm 2: shatter the buddy block into the color lists.
            start, order = block
            self.colors.push_frames(range(start, start + (1 << order)))
            pfn = self.colors.pop_matching(mem_colors, llc_colors)
        return pfn, refills

    def _pull_refill_block(self, nodes: tuple[int, ...]) -> tuple[int, int] | None:
        """Take the head buddy block of the smallest non-empty order >= 1
        from the first of ``nodes`` that has one (order 0 is drained by
        :meth:`_pop_or_refill` before any larger block is pulled)."""
        for order in range(1, MAX_ORDER + 1):
            for node in nodes:
                start = self.node_buddies[node].pop_head(order)
                if start is not None:
                    return start, order
        return None

    # ------------------------------------------------------------------ normal
    def _normal_buddy_alloc(self, task: TaskStruct, order: int) -> int | None:
        """Default Linux behaviour: local node, then nearest-first fallback."""
        for node in self._nodes_by_distance[task.core]:
            pfn = self.node_buddies[node].alloc(order)
            if pfn is not None:
                return pfn
        return None

    def _mark_block_allocated(self, pfn: int, order: int, task: TaskStruct) -> None:
        if order:
            self.pool.mark_range_allocated(pfn, pfn + (1 << order), task.tid)
        else:
            self.pool.mark_allocated(pfn, task.tid)
        task.pages_allocated += 1 << order

    # ------------------------------------------------------------------ info
    def free_frames_total(self) -> int:
        buddy = sum(b.free_frames() for b in self.node_buddies)
        return buddy + self.colors.total_free
