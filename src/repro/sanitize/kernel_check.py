"""Kernel-layer checker: frame ownership is a partition.

Guards :mod:`repro.kernel` (buddy.py / colorlist.py / pagealloc.py /
vm.py): every physical frame must be in exactly one place — on a buddy
free list, on a ``color_list[MEM][LLC]`` free list, or allocated to
exactly one task — and the ``FramePool.state`` array must agree with the
free-list structures frame for frame.  Page tables may only map
ALLOCATED frames and never alias one frame under two virtual pages.
"""

from __future__ import annotations

import numpy as np

from repro.kernel.buddy import MAX_ORDER
from repro.kernel.frame import FrameState
from repro.kernel.kernel import Kernel
from repro.sanitize.base import Checker


class KernelChecker(Checker):
    """Structural invariants of the page allocator and page tables."""

    layer = "kernel"

    def __init__(self, kernel: Kernel) -> None:
        self.kernel = kernel

    # ------------------------------------------------------------------ cheap
    def check_fast(self) -> None:
        """Frame-count conservation (O(#orders + #states), no list walks)."""
        kernel = self.kernel
        pa = kernel.page_allocator
        counts = kernel.pool.counts()
        buddy_free = sum(b.free_frames() for b in pa.node_buddies)
        if buddy_free != counts["buddy"]:
            self.fail(
                "buddy-count",
                f"buddy lists hold {buddy_free} frames but "
                f"{counts['buddy']} frames are in state BUDDY",
            )
        if pa.colors.total_free != counts["colored_free"]:
            self.fail(
                "colorlist-count",
                f"color matrix counts {pa.colors.total_free} free frames but "
                f"{counts['colored_free']} frames are in state COLORED_FREE",
            )
        total = counts["buddy"] + counts["colored_free"] + counts["allocated"]
        if total != kernel.pool.num_frames:
            self.fail(
                "frame-conservation",
                f"state counts sum to {total}, machine has "
                f"{kernel.pool.num_frames} frames",
            )

    # ------------------------------------------------------------------ full
    def check(self) -> None:
        """Full partition walk: free lists vs the state array vs page tables."""
        self.check_fast()
        kernel = self.kernel
        pool = kernel.pool
        pa = kernel.page_allocator

        for node, buddy in enumerate(pa.node_buddies):
            try:
                buddy.check_invariants()
            except AssertionError as exc:
                self.fail("buddy-structure", f"node {node}: {exc}", node=node)
        try:
            pa.colors.check_invariants()
        except AssertionError as exc:
            self.fail("colorlist-structure", str(exc))

        # Enumerate the free frames each structure claims to hold.
        buddy_frames: set[int] = set()
        for node, buddy in enumerate(pa.node_buddies):
            for order in range(MAX_ORDER + 1):
                for start in buddy.blocks(order):
                    for pfn in range(start, start + (1 << order)):
                        if pfn in buddy_frames:
                            self.fail(
                                "buddy-duplicate",
                                f"frame {pfn} on two buddy free blocks",
                                pfn=pfn,
                            )
                        buddy_frames.add(pfn)
        colored_frames: set[int] = set()
        for (mem, llc), bucket in pa.colors._lists.items():
            seen_in_bucket: set[int] = set()
            for pfn in bucket:
                if pfn in seen_in_bucket or pfn in colored_frames:
                    self.fail(
                        "colorlist-duplicate",
                        f"frame {pfn} appears twice in the color matrix "
                        f"(last seen under color {(mem, llc)})",
                        pfn=pfn, mem=mem, llc=llc,
                    )
                if pfn in buddy_frames:
                    self.fail(
                        "free-list-overlap",
                        f"frame {pfn} is on both a buddy list and "
                        f"color_list[{mem}][{llc}]",
                        pfn=pfn,
                    )
                seen_in_bucket.add(pfn)
            colored_frames |= seen_in_bucket

        # The state array must agree with the free lists exactly.
        state = pool.state
        state_buddy = set(np.flatnonzero(state == int(FrameState.BUDDY)).tolist())
        if state_buddy != buddy_frames:
            leaked = sorted(state_buddy ^ buddy_frames)[:8]
            self.fail(
                "frame-partition",
                "frames in state BUDDY do not match the buddy free lists "
                f"(first differing frames: {leaked})",
                frames=leaked,
            )
        state_colored = set(
            np.flatnonzero(state == int(FrameState.COLORED_FREE)).tolist()
        )
        if state_colored != colored_frames:
            leaked = sorted(state_colored ^ colored_frames)[:8]
            self.fail(
                "frame-partition",
                "frames in state COLORED_FREE do not match the color matrix "
                f"(first differing frames: {leaked})",
                frames=leaked,
            )

        # Ownership: allocated frames have a live owning task, free frames
        # have none.
        allocated = np.flatnonzero(state == int(FrameState.ALLOCATED))
        owners = pool.owner[allocated]
        if allocated.size and int(owners.min()) < 0:
            pfn = int(allocated[int(np.argmin(owners))])
            self.fail(
                "owner-missing", f"allocated frame {pfn} has no owner", pfn=pfn
            )
        for tid in np.unique(owners).tolist():
            if tid >= 0 and tid not in kernel.tasks:
                self.fail(
                    "owner-unknown",
                    f"allocated frames owned by nonexistent task {tid}",
                    tid=tid,
                )
        free_mask = state != int(FrameState.ALLOCATED)
        stray = np.flatnonzero(free_mask & (pool.owner != -1))
        if stray.size:
            pfn = int(stray[0])
            self.fail(
                "owner-stale",
                f"free frame {pfn} still records owner {int(pool.owner[pfn])}",
                pfn=pfn,
            )

        # Page tables: only ALLOCATED frames may be mapped, each at most once.
        mapped: dict[int, tuple[int, int]] = {}
        for pid, proc in kernel.processes.items():
            for vpn, pfn in proc.address_space.page_table.items():
                prior = mapped.get(pfn)
                if prior is not None:
                    self.fail(
                        "pfn-aliased",
                        f"frame {pfn} mapped at (pid {pid}, vpn {vpn}) and "
                        f"(pid {prior[0]}, vpn {prior[1]})",
                        pfn=pfn,
                    )
                mapped[pfn] = (pid, vpn)
                if state[pfn] != int(FrameState.ALLOCATED):
                    self.fail(
                        "mapped-not-allocated",
                        f"page table maps frame {pfn} which is in state "
                        f"{FrameState(int(state[pfn])).name}",
                        pfn=pfn, pid=pid, vpn=vpn,
                    )
