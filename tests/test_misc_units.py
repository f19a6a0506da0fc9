"""Focused tests for smaller units: TaskStruct, DramStats, Policy,
ColorMatrix counters, empty-trace sections."""

import numpy as np
import pytest

from repro.alloc.policies import ALL_POLICIES, TINT_VARIANTS, Policy
from repro.dram.system import AccessResult, DramStats, RowKind
from repro.kernel.colorlist import ColorMatrix
from repro.kernel.frame import FramePool
from repro.kernel.task import TaskStruct
from repro.machine.presets import tiny_machine
from repro.sim.barrier import Program, Section
from repro.sim.trace import Trace


class TestTaskStruct:
    def test_add_colors_sets_flags(self):
        t = TaskStruct(tid=1, core=0)
        assert not t.colored
        t.add_mem_color(3)
        assert t.using_bank and t.colored
        t.add_llc_color(1)
        assert t.using_llc

    def test_duplicates_ignored(self):
        t = TaskStruct(tid=1, core=0)
        t.add_mem_color(3)
        t.add_mem_color(3)
        assert t.mem_colors == [3]

    def test_clear_drops_flag_and_colors(self):
        t = TaskStruct(tid=1, core=0)
        t.add_mem_color(3)
        t.add_llc_color(1)
        t.clear_mem_colors()
        assert not t.using_bank and t.using_llc
        assert t.mem_constraint() is None
        assert t.llc_constraint() == [1]

    def test_constraints_none_when_unset(self):
        t = TaskStruct(tid=1, core=0)
        assert t.mem_constraint() is None
        assert t.llc_constraint() is None


class TestDramStats:
    def _result(self, kind=RowKind.HIT, hops=0, node=0):
        return AccessResult(100.0, kind, node, 5, hops, 10.0)

    def test_record_counts(self):
        s = DramStats()
        s.record(self._result(RowKind.HIT))
        s.record(self._result(RowKind.MISS, hops=1))
        s.record(self._result(RowKind.CONFLICT, node=2))
        assert (s.row_hits, s.row_misses, s.row_conflicts) == (1, 1, 1)
        assert s.local_accesses == 2 and s.remote_accesses == 1
        assert s.per_node_accesses == {0: 2, 2: 1}

    def test_rates(self):
        s = DramStats()
        for _ in range(3):
            s.record(self._result(RowKind.HIT))
        s.record(self._result(RowKind.CONFLICT, hops=2))
        # record() counts; DramSystem.demand books the latency sum.
        s.total_latency += 4 * 100.0
        assert s.row_hit_rate == 0.75
        assert s.remote_fraction == 0.25
        assert s.mean_latency == pytest.approx(100.0)

    def test_empty_rates_zero(self):
        s = DramStats()
        assert s.row_hit_rate == 0.0
        assert s.remote_fraction == 0.0
        assert s.mean_latency == 0.0

    def test_access_result_remote_property(self):
        assert self._result(hops=1).remote
        assert not self._result(hops=0).remote


class TestPolicyEnum:
    def test_labels_unique(self):
        labels = [p.label for p in ALL_POLICIES]
        assert len(set(labels)) == len(labels)

    def test_variants_exclude_headliners(self):
        assert Policy.BUDDY not in TINT_VARIANTS
        assert Policy.BPM not in TINT_VARIANTS
        assert Policy.MEM_LLC not in TINT_VARIANTS
        assert len(TINT_VARIANTS) == 4


class TestColorMatrixCounters:
    def test_free_counts(self):
        pool = FramePool(tiny_machine().mapping)
        matrix = ColorMatrix(pool)
        pfn = 0
        mem = int(pool.bank_color[pfn])
        llc = int(pool.llc_color[pfn])
        matrix.push_frames([pfn])
        assert matrix.free_count(mem, llc) == 1
        assert matrix.free_count_mem(mem) == 1
        assert matrix.free_count(mem, (llc + 1) % 4) == 0


class TestEmptyTraceSections:
    def test_empty_parallel_trace_is_instant(self):
        from repro.alloc.policies import Policy as P
        from repro.core.session import ColoredTeam
        from repro.core.tintmalloc import TintMalloc
        from repro.sim.engine import Engine, MemorySystem

        machine = tiny_machine()
        tm = TintMalloc(machine=machine)
        team = ColoredTeam.create(tm, [0, 1], P.BUDDY)
        memory = MemorySystem.for_machine(machine)
        empty = Trace(np.empty(0, np.int64), np.empty(0, bool), 0.0)
        program = Program(
            sections=[Section("parallel", {0: empty, 1: empty})],
            nthreads=2,
        )
        m = Engine(team, memory).run(program)
        assert m.runtime == 0.0
        assert m.total_idle == 0.0
        assert m.barriers == 1
