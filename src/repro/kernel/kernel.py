"""Kernel facade: boot, tasks, processes, syscalls, demand paging.

Boot mirrors the paper: the address mapping is **re-derived from the
simulated PCI registers** and must equal the machine description's (whose
instance the kernel then shares with the DRAM system), then the frame
pool and per-node buddy allocators are initialised with all memory on
the buddy free lists and the 128x32 color matrix empty.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

from repro.faultline import hooks as _fault_hooks
from repro.faultline.faults import InjectedMmapError
from repro.kernel import mmapi
from repro.kernel.pagealloc import PageAllocator
from repro.kernel.frame import FramePool
from repro.kernel.task import TaskStruct
from repro.kernel.vm import AddressSpace, Vma
from repro.machine.pci import probe_address_mapping
from repro.machine.presets import MachineSpec
from repro.obs.observer import NULL_OBSERVER, BaseObserver

#: Cost of a minor page fault (trap + buddy pop), ns.
FAULT_BASE_NS = 1200.0
#: Extra fault cost per buddy block examined or shattered during a colored
#: allocation, ns: the paper's "overhead of colored allocations is higher
#: for the first heap requests".
REFILL_BLOCK_NS = 150.0


class OutOfMemory(Exception):
    """No frame can satisfy an uncolored allocation."""


class OutOfColoredMemory(Exception):
    """No frame of the requested color set is left (paper: mmap error)."""


@dataclass
class Process:
    """A user process: an address space shared by its tasks."""

    pid: int
    address_space: AddressSpace
    tasks: list[TaskStruct] = field(default_factory=list)


@dataclass(frozen=True)
class FaultCharge:
    """Cost accounting for one demand fault (consumed by the simulator)."""

    base_ns: float
    refill_ns: float

    @property
    def total_ns(self) -> float:
        return self.base_ns + self.refill_ns


def _weak_fault_handler(kernel: "Kernel"):
    """``kernel._handle_fault`` behind a weak reference.

    The kernel owns its processes' address spaces; a bound method there
    would point back at the kernel and leave a finished run for the
    cyclic GC instead of freeing it by refcount.
    """
    ref = weakref.ref(kernel)

    def fault_handler(task: TaskStruct, vpn: int, order: int = 0) -> int:
        owner = ref()
        if owner is None:
            raise RuntimeError("page fault in a process whose kernel is gone")
        return owner._handle_fault(task, vpn, order)

    return fault_handler


class Kernel:
    """The simulated OS kernel.

    Args:
        machine: full machine description (topology + PCI register file).
        aged: when True, boot into an *aged-system* state: all free memory
            fragmented into randomly ordered order-0 frames (see
            :meth:`~repro.kernel.buddy.BuddyAllocator.fragment`).  An
            ablation: experiments boot every named policy pristine, and
            only a structured policy's ``aged`` flag turns it on.
        age_seed: seed for the aging shuffle.  The paper's run-to-run
            error bars come from the workloads' ``os_noise`` jitter, not
            from this seed.
    """

    def __init__(
        self,
        machine: MachineSpec,
        aged: bool = False,
        age_seed: int = 0,
        observer: BaseObserver = NULL_OBSERVER,
    ) -> None:
        self.machine = machine
        self.topology = machine.topology
        # Boot-time PCI probe, as in the paper (§III-A).  Once it agrees,
        # adopt the machine's own mapping instance, so the kernel, its
        # frame pool and the DRAM system share one per-frame color table.
        if probe_address_mapping(machine.pci) != machine.mapping:
            raise RuntimeError("PCI probe disagrees with machine description")
        self.mapping = machine.mapping
        self.pool = FramePool(self.mapping)
        self.obs = observer
        self.page_allocator = PageAllocator(
            self.pool, self.topology, observer=observer
        )
        self._register_counters(observer)
        if aged:
            self._age_system(age_seed)
        self.tasks: dict[int, TaskStruct] = {}
        self.processes: dict[int, Process] = {}
        self._next_tid = 1
        self._next_pid = 1
        #: cost of the most recent fault, read by the simulation engine.
        self.last_fault_charge: FaultCharge | None = None

    def _register_counters(self, obs: BaseObserver) -> None:
        """Free-frame gauges: buddy totals and per-node color-list fill."""
        if not obs.enabled:
            return
        pa = self.page_allocator
        obs.register_counter(
            "kernel.free.colored", lambda now: pa.colors.total_free
        )
        obs.register_counter(
            "kernel.free.buddy",
            lambda now: sum(b.free_frames() for b in pa.node_buddies),
        )
        for node in range(self.mapping.num_nodes):
            colors = list(self.mapping.bank_colors_of_node(node))
            obs.register_counter(
                f"kernel.free.colored_node[{node}]",
                lambda now, c=colors: pa.colors.free_count_colors(c),
            )
        obs.register_counter(
            "kernel.colored_allocs", lambda now: pa.colored_allocs
        )
        obs.register_counter(
            "kernel.refill_blocks", lambda now: pa.refill_blocks
        )

    def _age_system(self, seed: int) -> None:
        """Fragment every node's free lists into shuffled order-0 frames."""
        from repro.util.rng import RngStream

        for node, buddy in enumerate(self.page_allocator.node_buddies):
            rng = RngStream(seed, "age", node)
            lo, hi = self.pool.node_frame_range(node)
            order = rng.permutation(hi - lo) + lo
            buddy.fragment(order.tolist())

    # ------------------------------------------------------------------ tasks
    def create_process(self) -> Process:
        space = AddressSpace(
            page_bits=self.mapping.page_bits,
            fault_handler=_weak_fault_handler(self),
        )
        proc = Process(pid=self._next_pid, address_space=space)
        self._next_pid += 1
        self.processes[proc.pid] = proc
        return proc

    def create_task(self, process: Process, core: int) -> TaskStruct:
        """Spawn a task pinned to ``core`` (paper assumption: static pins)."""
        self.topology._check_core(core)
        task = TaskStruct(tid=self._next_tid, core=core)
        self._next_tid += 1
        self.tasks[task.tid] = task
        process.tasks.append(task)
        return task

    # ------------------------------------------------------------------ mmap
    #: order of a 2 MiB huge page with 4 KiB base pages.
    HUGE_PAGE_ORDER = 9

    def sys_mmap(
        self,
        task: TaskStruct,
        addr: int,
        length: int,
        prot: int,
        label: str = "",
        huge: bool = False,
    ) -> int | Vma:
        """The modified ``mmap()`` system call.

        Zero-length + :data:`~repro.kernel.mmapi.COLOR_ALLOC` in ``prot``:
        color directive — updates the calling task's TCB and returns 0.
        Otherwise: create an anonymous demand-paged mapping and return its
        :class:`~repro.kernel.vm.Vma`.  ``huge=True`` requests 2 MiB pages
        (a specially mounted memory device in the paper's terms); huge
        allocations are order > 0 and therefore NEVER colored (§III-C).

        The ``kernel.mmap.fail`` faultline site (scoped by mapping label,
        falling back to the task id) simulates the syscall's ENOMEM path
        with a typed :class:`~repro.faultline.faults.InjectedMmapError`.
        """
        scope = label or f"t{task.tid}"
        if _fault_hooks.should_fire("kernel.mmap.fail", scope):
            raise InjectedMmapError(
                "kernel.mmap.fail", scope, "simulated mmap ENOMEM"
            )
        if length == 0 and (prot & mmapi.COLOR_ALLOC):
            mode, color = mmapi.decode_directive(addr)
            if mode == mmapi.MODE_SET_MEM:
                if not 0 <= color < self.mapping.num_bank_colors:
                    raise ValueError(f"bank color {color} out of range")
                task.add_mem_color(color)
            elif mode == mmapi.MODE_SET_LLC:
                if not 0 <= color < self.mapping.num_llc_colors:
                    raise ValueError(f"LLC color {color} out of range")
                task.add_llc_color(color)
            elif mode == mmapi.MODE_CLEAR_MEM:
                task.clear_mem_colors()
            elif mode == mmapi.MODE_CLEAR_LLC:
                task.clear_llc_colors()
            else:
                raise ValueError(f"unknown color directive mode {mode}")
            return 0
        process = self._process_of(task)
        return process.address_space.map_region(
            length, prot, label=label,
            page_order=self.HUGE_PAGE_ORDER if huge else 0,
        )

    def sys_munmap(self, task: TaskStruct, vma: Vma) -> None:
        """Unmap a region, returning its frames to the free pools."""
        process = self._process_of(task)
        released = process.address_space.unmap_region(vma)
        if vma.page_order:
            # Huge mappings release whole aligned blocks.
            step = 1 << vma.page_order
            for base in sorted(released)[::step]:
                owner = self.tasks.get(int(self.pool.owner[base]))
                self.page_allocator.free_pages(
                    owner if owner else task, base, vma.page_order
                )
            return
        for pfn in released:
            owner = self.tasks.get(int(self.pool.owner[pfn]))
            self.page_allocator.free_pages(owner if owner else task, pfn, 0)

    # ------------------------------------------------------------------ faults
    def _handle_fault(self, task: TaskStruct, vpn: int, order: int = 0) -> int:
        """Demand fault: allocate frames under the faulting task's policy.

        ``order`` > 0 (huge mappings) always takes the plain buddy path —
        Algorithm 1 only colors order-0 requests.
        """
        outcome = self.page_allocator.alloc_pages(task, order=order)
        if outcome is None:
            if order == 0 and task.colored:
                raise OutOfColoredMemory(
                    f"task {task.tid}: no free page for mem_colors="
                    f"{task.mem_colors} llc_colors={task.llc_colors}"
                )
            raise OutOfMemory(f"task {task.tid}: physical memory exhausted")
        self.last_fault_charge = FaultCharge(
            base_ns=FAULT_BASE_NS,
            refill_ns=REFILL_BLOCK_NS * outcome.refills,
        )
        return outcome.pfn

    def _process_of(self, task: TaskStruct) -> Process:
        for proc in self.processes.values():
            if task in proc.tasks:
                return proc
        raise ValueError(f"task {task.tid} belongs to no process")

    # ------------------------------------------------------------------ stats
    def memory_stats(self) -> dict[str, int]:
        stats = self.pool.counts()
        stats["colored_allocs"] = self.page_allocator.colored_allocs
        stats["normal_allocs"] = self.page_allocator.normal_allocs
        stats["refill_blocks"] = self.page_allocator.refill_blocks
        return stats
