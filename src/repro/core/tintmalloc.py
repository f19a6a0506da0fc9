"""The TintMalloc allocator facade.

Boots the simulated machine's kernel, owns one user process, and exposes
the paper's programming model:

1. ``spawn_thread(core)`` — create a task pinned to a core.
2. ``handle.set_colors(mem=..., llc=...)`` — the single line of
   initialisation code (one ``mmap()`` color directive per color).
3. ``handle.malloc(...)`` / ``handle.free(...)`` — regular heap calls;
   pages fault in with the thread's colors on first touch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.alloc.heap import HeapAllocator
from repro.core.coloring import ColorCapacity, color_capacity
from repro.kernel.kernel import Kernel, Process
from repro.kernel.mmapi import (
    COLOR_ALLOC,
    PROT_RW,
    clear_llc_color,
    clear_mem_color,
    set_llc_color,
    set_mem_color,
)
from repro.kernel.task import TaskStruct
from repro.machine.presets import MachineSpec, opteron_6128


@dataclass
class ThreadHandle:
    """One application thread pinned to a core."""

    tm: "TintMalloc"
    task: TaskStruct

    @property
    def core(self) -> int:
        """The core this thread is pinned to."""
        return self.task.core

    @property
    def node(self) -> int:
        """The thread's local memory node."""
        return self.tm.kernel.topology.node_of_core(self.task.core)

    # ------------------------------------------------------------- coloring
    def set_colors(
        self,
        mem: Sequence[int] | None = None,
        llc: Sequence[int] | None = None,
    ) -> None:
        """Issue the paper's initialisation one-liner(s).

        Each color is one zero-length ``mmap()`` call with bit 30 of the
        protection argument set ("a thread may even call mmap() multiple
        times to establish a set of owned colors").
        """
        kernel = self.tm.kernel
        for c in mem or ():
            kernel.sys_mmap(self.task, set_mem_color(c), 0, PROT_RW | COLOR_ALLOC)
        for c in llc or ():
            kernel.sys_mmap(self.task, set_llc_color(c), 0, PROT_RW | COLOR_ALLOC)

    def clear_colors(self) -> None:
        """Drop all colors — subsequent allocations use the default policy."""
        kernel = self.tm.kernel
        kernel.sys_mmap(self.task, clear_mem_color(), 0, PROT_RW | COLOR_ALLOC)
        kernel.sys_mmap(self.task, clear_llc_color(), 0, PROT_RW | COLOR_ALLOC)

    def capacity(self) -> ColorCapacity:
        """Physical capacity reachable under this thread's current colors."""
        return color_capacity(
            self.tm.kernel.mapping,
            self.task.mem_constraint(),
            self.task.llc_constraint(),
            llc_size_bytes=self.tm.kernel.topology.llc.size_bytes,
        )

    # ------------------------------------------------------------- heap
    def malloc(self, size: int, label: str = "", huge: bool = False) -> int:
        """Allocate *size* bytes on the shared heap; returns the vaddr.

        Pages fault in lazily under this thread's colors on first touch.
        """
        return self.tm.heap.malloc(self.task, size, label=label, huge=huge)

    def free(self, va: int) -> None:
        """Release a heap allocation previously returned by :meth:`malloc`."""
        self.tm.heap.free(self.task, va)

    def touch(self, vaddr: int) -> int:
        """Simulate a memory touch: demand-fault the page, return paddr."""
        paddr, _ = self.tm.process.address_space.translate(vaddr, self.task)
        return paddr

    def touch_range(self, va: int, length: int) -> list[int]:
        """First-touch every page of ``[va, va+length)``; returns paddrs."""
        page = self.tm.kernel.mapping.page_bytes
        first = va // page
        last = (va + length - 1) // page
        return [self.touch(vpn * page) for vpn in range(first, last + 1)]

    # ------------------------------------------------------------- info
    def page_colors(self, va: int, length: int) -> list[tuple[int, int]]:
        """(bank color, LLC color) of each resident page in the range."""
        kernel = self.tm.kernel
        space = self.tm.process.address_space
        page = kernel.mapping.page_bytes
        out = []
        for vpn in range(va // page, (va + length - 1) // page + 1):
            pfn = space.page_table.get(vpn)
            if pfn is not None:
                out.append(
                    (int(kernel.pool.bank_color[pfn]), int(kernel.pool.llc_color[pfn]))
                )
        return out


class TintMalloc:
    """Top-level allocator object: one simulated machine, one process."""

    def __init__(
        self,
        machine: MachineSpec | None = None,
        kernel: Kernel | None = None,
    ) -> None:
        if kernel is not None:
            self.kernel = kernel
            self.machine = kernel.machine
        else:
            self.machine = machine or opteron_6128()
            self.kernel = Kernel(self.machine)
        self.process: Process = self.kernel.create_process()
        self.heap = HeapAllocator(self.kernel, self.process)

    def spawn_thread(self, core: int) -> ThreadHandle:
        """Create a thread pinned to ``core`` (paper: static pinning)."""
        task = self.kernel.create_task(self.process, core)
        return ThreadHandle(tm=self, task=task)

    @property
    def mapping(self):
        """The machine's :class:`~repro.machine.address.AddressMapping`."""
        return self.kernel.mapping

    @property
    def topology(self):
        """The machine's :class:`~repro.machine.topology.MachineTopology`."""
        return self.kernel.topology
