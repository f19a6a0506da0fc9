"""Unit tests for the mmap color-control ABI and the Kernel facade."""

import pytest

from repro.kernel import mmapi
from repro.kernel.kernel import Kernel, OutOfColoredMemory
from repro.kernel.mmapi import (
    COLOR_ALLOC,
    PROT_RW,
    clear_llc_color,
    clear_mem_color,
    decode_directive,
    set_llc_color,
    set_mem_color,
)
from repro.kernel.vm import Vma
from repro.machine.presets import tiny_machine
from repro.obs.observer import Observer
from repro.util.units import MIB


@pytest.fixture
def env(kernel):
    proc = kernel.create_process()
    task = kernel.create_task(proc, core=0)
    return kernel, proc, task


class TestDirectiveEncoding:
    def test_roundtrip(self):
        for build, mode in (
            (set_mem_color, mmapi.MODE_SET_MEM),
            (set_llc_color, mmapi.MODE_SET_LLC),
        ):
            got_mode, got_color = decode_directive(build(17))
            assert (got_mode, got_color) == (mode, 17)

    def test_clear_modes(self):
        assert decode_directive(clear_mem_color())[0] == mmapi.MODE_CLEAR_MEM
        assert decode_directive(clear_llc_color())[0] == mmapi.MODE_CLEAR_LLC

    def test_color_out_of_encodable_range(self):
        with pytest.raises(ValueError):
            set_mem_color(1 << 24)


class TestColorControlSyscall:
    def test_paper_one_liner(self, env):
        """The paper's example: one mmap() call adds one LLC color."""
        kernel, _, task = env
        ret = kernel.sys_mmap(task, set_llc_color(2), 0, PROT_RW | COLOR_ALLOC)
        assert ret == 0
        assert task.llc_colors == [2]
        assert task.using_llc and not task.using_bank

    def test_multiple_calls_accumulate(self, env):
        kernel, _, task = env
        for c in (1, 5, 1):  # duplicate ignored
            kernel.sys_mmap(task, set_mem_color(c), 0, PROT_RW | COLOR_ALLOC)
        assert task.mem_colors == [1, 5]

    def test_clear_resets_policy(self, env):
        kernel, _, task = env
        kernel.sys_mmap(task, set_mem_color(1), 0, PROT_RW | COLOR_ALLOC)
        kernel.sys_mmap(task, clear_mem_color(), 0, PROT_RW | COLOR_ALLOC)
        assert not task.using_bank and task.mem_colors == []

    def test_color_range_validated(self, env):
        kernel, _, task = env
        with pytest.raises(ValueError):
            kernel.sys_mmap(task, set_mem_color(999), 0, PROT_RW | COLOR_ALLOC)
        with pytest.raises(ValueError):
            kernel.sys_mmap(task, set_llc_color(99), 0, PROT_RW | COLOR_ALLOC)

    def test_without_bit30_zero_length_is_error(self, env):
        kernel, _, task = env
        with pytest.raises(ValueError):
            kernel.sys_mmap(task, 0, 0, PROT_RW)

    def test_nonzero_length_with_bit30_maps_normally(self, env):
        """Bit 30 is only honoured for zero-length requests."""
        kernel, _, task = env
        vma = kernel.sys_mmap(task, 0, 4096, PROT_RW | COLOR_ALLOC)
        assert isinstance(vma, Vma)


class TestDemandAllocationPolicies:
    def test_colored_task_gets_colored_frames(self, env):
        kernel, proc, task = env
        kernel.sys_mmap(task, set_mem_color(3), 0, PROT_RW | COLOR_ALLOC)
        vma = kernel.sys_mmap(task, 0, 64 * 1024, PROT_RW)
        for i in range(16):
            paddr, _ = proc.address_space.translate(vma.start + i * 4096, task)
            assert int(kernel.pool.bank_color[paddr >> 12]) == 3

    def test_default_task_first_touch_local(self, kernel):
        proc = kernel.create_process()
        t_far = kernel.create_task(proc, core=2)  # node 1
        vma = kernel.sys_mmap(t_far, 0, 64 * 1024, PROT_RW)
        for i in range(16):
            paddr, _ = proc.address_space.translate(vma.start + i * 4096, t_far)
            assert kernel.pool.node_of_frame(paddr >> 12) == 1

    def test_out_of_colored_memory_raises(self):
        observer = Observer()
        kernel = Kernel(tiny_machine(memory_bytes=4 * MIB), observer=observer)
        proc = kernel.create_process()
        task = kernel.create_task(proc, core=0)
        mapping = kernel.mapping
        mem = mapping.compatible_bank_colors(0, node=0)[0]
        kernel.sys_mmap(task, set_mem_color(mem), 0, PROT_RW | COLOR_ALLOC)
        kernel.sys_mmap(task, set_llc_color(0), 0, PROT_RW | COLOR_ALLOC)
        budget = mapping.frames_per_combo()
        vma = kernel.sys_mmap(task, 0, (budget + 1) * 4096, PROT_RW)
        with pytest.raises(OutOfColoredMemory):
            for i in range(budget + 1):
                proc.address_space.translate(vma.start + i * 4096, task)
        # The failed colored allocation is traced with the task's colors.
        failed = [e for e in observer.events if e.name == "kernel.alloc.failed"]
        assert [e.args for e in failed] == [
            {"mem_colors": [mem], "llc_colors": [0]}
        ]

    def test_fault_charge_recorded(self, env):
        kernel, proc, task = env
        kernel.sys_mmap(task, set_mem_color(0), 0, PROT_RW | COLOR_ALLOC)
        vma = kernel.sys_mmap(task, 0, 4096, PROT_RW)
        proc.address_space.translate(vma.start, task)
        charge = kernel.last_fault_charge
        assert charge is not None
        assert charge.base_ns == kernel.fault_base_ns
        assert charge.refill_ns > 0  # first colored fault scans buddy blocks


class TestMunmap:
    def test_munmap_frees_frames(self, env):
        kernel, proc, task = env
        vma = kernel.sys_mmap(task, 0, 16 * 4096, PROT_RW)
        for i in range(16):
            proc.address_space.translate(vma.start + i * 4096, task)
        allocated_before = kernel.memory_stats()["allocated"]
        kernel.sys_munmap(task, vma)
        assert kernel.memory_stats()["allocated"] == allocated_before - 16


class TestBoot:
    def test_boot_probes_pci(self, tiny):
        kernel = Kernel(tiny)
        assert kernel.mapping == tiny.mapping

    def test_memory_stats_shape(self, kernel):
        stats = kernel.memory_stats()
        assert stats["buddy"] == kernel.pool.num_frames
        assert stats["allocated"] == 0

    def test_aged_boot_fragments(self, tiny):
        kernel = Kernel(tiny, aged=True, age_seed=1)
        for buddy in kernel.page_allocator.node_buddies:
            assert buddy.fragmented
            assert buddy.free_blocks(0) == buddy.num_frames

    def test_aged_boot_deterministic(self, tiny):
        k1 = Kernel(tiny, aged=True, age_seed=5)
        k2 = Kernel(tiny, aged=True, age_seed=5)
        assert (
            k1.page_allocator.node_buddies[0].pop_head(0)
            == k2.page_allocator.node_buddies[0].pop_head(0)
        )
