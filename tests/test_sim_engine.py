"""Unit tests for the execution engine: barriers, idle time, determinism."""

import numpy as np
import pytest

from repro.alloc.policies import Policy
from repro.core.session import ColoredTeam
from repro.core.tintmalloc import TintMalloc
from repro.kernel.kernel import Kernel
from repro.machine.presets import tiny_machine
from repro.sim.barrier import Program, Section
from repro.sim.engine import Engine, MemorySystem
from repro.sim.trace import Trace


def build_env(policy=Policy.BUDDY, cores=(0, 1, 2, 3)):
    machine = tiny_machine()
    kernel = Kernel(machine)
    tm = TintMalloc(kernel=kernel)
    team = ColoredTeam.create(tm, list(cores), policy)
    memory = MemorySystem.for_machine(machine)
    return tm, team, Engine(team, memory)


def trace_over(handle, nbytes, think=1.0, write=False):
    base = handle.malloc(nbytes)
    n = nbytes // 64
    return Trace(
        vaddrs=base + np.arange(n, dtype=np.int64) * 64,
        writes=np.full(n, write, dtype=bool),
        think_ns=think,
    )


class TestBarriers:
    def test_idle_is_max_minus_end(self):
        """Algorithm 3: idle[tid] = max(end) - end[tid]."""
        tm, team, engine = build_env()
        # Thread 1 does twice the work of thread 0.
        t0 = trace_over(team.handles[0], 16 * 1024)
        t1 = trace_over(team.handles[1], 32 * 1024)
        program = Program(
            sections=[Section("parallel", {0: t0, 1: t1})], nthreads=4
        )
        m = engine.run(program)
        assert m.threads[1].idle_time == pytest.approx(0.0)
        assert m.threads[0].idle_time > 0
        assert m.threads[0].idle_time == pytest.approx(
            m.threads[1].parallel_runtime - m.threads[0].parallel_runtime,
            rel=0.01,
        )

    def test_balanced_threads_little_idle(self):
        tm, team, engine = build_env()
        traces = {
            i: trace_over(team.handles[i], 16 * 1024) for i in range(4)
        }
        program = Program([Section("parallel", traces)], nthreads=4)
        m = engine.run(program)
        assert m.total_idle < 0.2 * m.parallel_runtime * 4

    def test_serial_section_advances_wall_only(self):
        tm, team, engine = build_env()
        serial = trace_over(team.handles[0], 8 * 1024, think=10.0)
        program = Program([Section("serial", {0: serial})], nthreads=4)
        m = engine.run(program)
        assert m.serial_runtime > 0
        assert m.parallel_runtime == 0
        assert m.total_idle == 0
        assert m.barriers == 0

    def test_sections_accumulate(self):
        tm, team, engine = build_env()
        sections = []
        for _ in range(3):
            traces = {i: trace_over(team.handles[i], 4 * 1024) for i in range(2)}
            sections.append(Section("parallel", traces))
        program = Program(sections, nthreads=4)
        m = engine.run(program)
        assert m.barriers == 3
        assert m.runtime == pytest.approx(m.parallel_runtime)


class TestAccounting:
    def test_access_and_fault_counts(self):
        tm, team, engine = build_env()
        t0 = trace_over(team.handles[0], 16 * 1024)
        program = Program([Section("parallel", {0: t0})], nthreads=4)
        m = engine.run(program)
        assert m.threads[0].accesses == len(t0)
        assert m.threads[0].faults == 4  # 16 KiB = 4 pages

    def test_dram_stats_attached(self):
        tm, team, engine = build_env()
        t0 = trace_over(team.handles[0], 16 * 1024)
        m = engine.run(Program([Section("parallel", {0: t0})], nthreads=4))
        assert m.dram is not None and m.dram.accesses > 0
        assert "llc" in m.cache

    def test_wrong_team_size_rejected(self):
        tm, team, engine = build_env()
        program = Program([], nthreads=2)
        with pytest.raises(ValueError):
            engine.run(program)


class TestDeterminism:
    def test_same_setup_same_result(self):
        results = []
        for _ in range(2):
            tm, team, engine = build_env(policy=Policy.MEM_LLC)
            traces = {
                i: trace_over(team.handles[i], 32 * 1024, write=True)
                for i in range(4)
            }
            program = Program([Section("parallel", traces)], nthreads=4)
            results.append(engine.run(program))
        assert results[0].runtime == results[1].runtime
        assert results[0].thread_idles() == results[1].thread_idles()

    def test_policies_change_behaviour(self):
        runtimes = {}
        for policy in (Policy.BUDDY, Policy.MEM_LLC):
            tm, team, engine = build_env(policy=policy)
            traces = {
                i: trace_over(team.handles[i], 64 * 1024, write=True)
                for i in range(4)
            }
            program = Program([Section("parallel", traces)], nthreads=4)
            runtimes[policy] = engine.run(program).runtime
        assert runtimes[Policy.BUDDY] != runtimes[Policy.MEM_LLC]


class TestContention:
    def test_shared_bank_interference_visible(self):
        """Two threads hammering the same physical pages (same banks) are
        slower than two threads on disjoint banks."""
        tm, team, engine = build_env(policy=Policy.MEM)
        # Disjoint: each thread its own (colored, private-bank) buffer.
        traces = {
            i: trace_over(team.handles[i], 64 * 1024, write=True)
            for i in range(2)
        }
        disjoint = engine.run(
            Program([Section("parallel", traces)], nthreads=4)
        ).parallel_runtime

        tm2, team2, engine2 = build_env(policy=Policy.BUDDY)
        shared_base = team2.handles[0].malloc(64 * 1024)
        n = 64 * 1024 // 64
        shared_traces = {
            i: Trace(
                vaddrs=shared_base + np.arange(n, dtype=np.int64) * 64,
                writes=np.ones(n, dtype=bool),
                think_ns=1.0,
            )
            for i in range(2)
        }
        # Interleave differently per thread to defeat co-hit timing.
        shared_traces[1] = Trace(
            vaddrs=shared_traces[1].vaddrs[::-1].copy(),
            writes=np.ones(n, dtype=bool),
            think_ns=1.0,
        )
        shared = engine2.run(
            Program([Section("parallel", shared_traces)], nthreads=4)
        ).parallel_runtime
        assert shared > disjoint


class TestEmptyTraces:
    def test_reference_loop_skips_empty_traces(self):
        """Threads with nothing to do in a section end where it starts,
        in both loops, and an all-empty section takes no time."""
        empty = Trace(np.zeros(0, np.int64), np.zeros(0, bool))
        results = []
        for fast in (True, False):
            tm, team, engine = build_env()
            engine.fast_path = fast
            busy = trace_over(team.handles[0], 8 * 1024)
            program = Program([
                Section("parallel", {0: busy, 1: empty}),
                Section("parallel", {0: empty, 1: empty}),
            ], nthreads=4)
            results.append(engine.run(program))
        fast, ref = results
        assert fast.runtime == ref.runtime > 0
        assert ref.sections[1].end == ref.sections[1].start
        assert ref.threads[1].parallel_runtime == 0.0
