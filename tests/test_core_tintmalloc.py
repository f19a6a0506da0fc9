"""Unit tests for the TintMalloc public API (the paper's usage model)."""

import pytest

from repro.alloc.policies import Policy
from repro.core.coloring import color_capacity
from repro.core.session import ColoredTeam
from repro.core.tintmalloc import TintMalloc
from repro.kernel.kernel import OutOfColoredMemory
from repro.machine.presets import tiny_machine
from repro.util.units import MIB


class TestUsageModel:
    def test_paper_flow(self, tm):
        """Pin, one-line color setup, plain malloc — frames are colored."""
        th = tm.spawn_thread(core=1)
        th.set_colors(mem=[2, 3], llc=[0, 1])
        buf = th.malloc(64 * 1024)
        th.touch_range(buf, 64 * 1024)
        for bank, llc in th.page_colors(buf, 64 * 1024):
            assert bank in (2, 3)
            assert llc in (0, 1)

    def test_uncolored_thread_first_touch_local(self, tm):
        th = tm.spawn_thread(core=2)  # node 1 on the tiny machine
        buf = th.malloc(32 * 1024)
        th.touch_range(buf, 32 * 1024)
        node = tm.topology.node_of_core(2)
        for pfn in (p >> 12 for p in th.touch_range(buf, 32 * 1024)):
            assert tm.kernel.pool.node_of_frame(pfn) == node

    def test_clear_colors_restores_default(self, tm):
        th = tm.spawn_thread(core=0)
        th.set_colors(mem=[5])
        th.clear_colors()
        assert not th.task.colored
        buf = th.malloc(8 * 4096)
        th.touch_range(buf, 8 * 4096)
        banks = {b for b, _ in th.page_colors(buf, 8 * 4096)}
        assert banks != {5}

    def test_thread_node_property(self, tm):
        assert tm.spawn_thread(core=0).node == 0
        assert tm.spawn_thread(core=3).node == 1

    def test_capacity_budget_enforced(self):
        tm = TintMalloc(machine=tiny_machine(memory_bytes=4 * MIB))
        th = tm.spawn_thread(core=0)
        mem = tm.mapping.compatible_bank_colors(0, node=0)[0]
        th.set_colors(mem=[mem], llc=[0])
        cap = th.capacity()
        buf = th.malloc(cap.bytes + 4096)
        with pytest.raises(OutOfColoredMemory):
            th.touch_range(buf, cap.bytes + 4096)


class TestColorCapacity:
    def test_unconstrained_is_whole_memory(self, tiny):
        cap = color_capacity(tiny.mapping, None, None)
        assert cap.bytes == tiny.mapping.memory_bytes

    def test_compatible_pair(self, tiny):
        mapping = tiny.mapping
        lc = mapping.compatible_llc_colors(0)[0]
        cap = color_capacity(mapping, [0], [lc])
        assert cap.frames == mapping.frames_per_combo()

    def test_incompatible_pair_zero(self, tiny):
        mapping = tiny.mapping
        bad = [
            lc
            for lc in range(mapping.num_llc_colors)
            if not mapping.colors_compatible(0, lc)
        ]
        cap = color_capacity(mapping, [0], bad[:1])
        assert cap.frames == 0

    def test_llc_share(self, tiny):
        cap = color_capacity(
            tiny.mapping, None, [0],
            llc_size_bytes=tiny.topology.llc.size_bytes,
        )
        expected = tiny.topology.llc.size_bytes // tiny.mapping.num_llc_colors
        assert cap.llc_bytes == expected

    def test_validation(self, tiny):
        with pytest.raises(ValueError):
            color_capacity(tiny.mapping, [], None)
        with pytest.raises(ValueError):
            color_capacity(tiny.mapping, [9999], None)


class TestColoredTeam:
    def test_team_applies_policy(self, tm):
        team = ColoredTeam.create(tm, cores=[0, 1, 2, 3], policy=Policy.MEM_LLC)
        assert team.nthreads == 4
        for handle, assignment in zip(team.handles, team.assignments):
            assert list(handle.task.mem_colors) == list(assignment.mem_colors)
            assert list(handle.task.llc_colors) == list(assignment.llc_colors)

    def test_buddy_team_uncolored(self, tm):
        team = ColoredTeam.create(tm, cores=[0, 1], policy=Policy.BUDDY)
        assert not any(h.task.colored for h in team.handles)

    def test_master_is_thread_zero(self, tm):
        team = ColoredTeam.create(tm, cores=[3, 1], policy=Policy.BUDDY)
        assert team.master.core == 3


class TestLlcMemPartMatchesLlc:
    """``llc+mem(part)`` gives each thread all of its local node's bank
    colors and the LLC share ``llc`` gives it, and an LLC-only refill
    starts at the local node.  So the two policies take the same frames
    while the local node has free frames of the thread's LLC colors, and
    part ways only once those run out: ``llc`` spills to the next node,
    ``llc+mem(part)`` has no other bank color to take."""

    @staticmethod
    def _touch_pages(policy: Policy, memory: int, pages: int) -> list:
        """Touch ``pages`` pages from thread 0 of a team on cores 0 and 1
        (node 0), one at a time; returns each page's (frame, node), and
        the exception that stopped the loop, if one did."""
        tm = TintMalloc(machine=tiny_machine(memory_bytes=memory))
        handle = ColoredTeam.create(tm, cores=[0, 1], policy=policy).master
        page = tm.mapping.page_bytes
        buf = handle.malloc(pages * page)
        frames = []
        for k in range(pages):
            try:
                pfn = handle.touch(buf + k * page) // page
            except OutOfColoredMemory as err:
                frames.append(err)
                break
            frames.append((pfn, tm.kernel.pool.node_of_frame(pfn)))
        return frames

    def test_same_frames_while_local_node_has_free_frames(self):
        llc = self._touch_pages(Policy.LLC, 64 * MIB, 1024)
        part = self._touch_pages(Policy.LLC_MEM_PART, 64 * MIB, 1024)
        assert part == llc
        assert len(set(llc)) == 1024
        assert {node for _, node in llc} == {0}

    @pytest.mark.parametrize("bench", ["lbm", "art"])
    @pytest.mark.parametrize(
        "config", ["16_threads_4_nodes", "4_threads_1_nodes"]
    )
    def test_run_records_differ_only_in_policy(self, bench, config):
        from dataclasses import asdict

        from repro.experiments.runner import run_benchmark

        llc, part = (
            asdict(run_benchmark(bench, policy, config, profile="mini"))
            for policy in (Policy.LLC, Policy.LLC_MEM_PART)
        )
        assert (llc.pop("policy"), part.pop("policy")) == (
            "llc", "llc+mem(part)"
        )
        assert part == llc

    def test_part_ways_once_local_node_is_exhausted(self):
        # 4 MiB: 512 frames per node, half of them in thread 0's two of
        # the four LLC colors, so 384 pages outrun node 0 but not both.
        llc = self._touch_pages(Policy.LLC, 4 * MIB, 384)
        part = self._touch_pages(Policy.LLC_MEM_PART, 4 * MIB, 384)
        k = len(part) - 1
        assert isinstance(part[k], OutOfColoredMemory)
        assert part[:k] == llc[:k]
        assert {node for _, node in llc[:k]} == {0}
        assert len(llc) == 384 and {node for _, node in llc[k:]} == {1}
