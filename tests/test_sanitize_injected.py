"""Negative tests: deliberately corrupt each layer, sanitizer must catch it.

Every test builds a healthy small environment, verifies the checkers
pass, injects one specific corruption (a leaked frame, a misfiled free
slot, a scrambled LRU set, an illegal bank transition, drifting stats),
and asserts the checker raises a :class:`SanitizeViolation` attributed
to the right layer and invariant.  The last test drives a corruption
through the full ``--sanitize full`` engine path (violation raised from
inside ``engine.run``), not just a direct checker call.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.alloc.policies import Policy
from repro.core.session import ColoredTeam
from repro.core.tintmalloc import TintMalloc
from repro.kernel.frame import FrameState
from repro.kernel.kernel import Kernel
from repro.machine.presets import tiny_machine
from repro.sanitize import (
    CacheChecker,
    DramChecker,
    HeapChecker,
    KernelChecker,
    SanitizerObserver,
    SanitizeViolation,
)
from repro.sim.barrier import Program, Section
from repro.sim.engine import Engine, MemorySystem
from repro.sim.trace import Trace
from repro.util.units import KIB, MIB


def small_env(observer=None):
    """A 1-thread tiny-machine environment (optionally sanitized)."""
    kwargs = {} if observer is None else {"observer": observer}
    machine = tiny_machine(8 * MIB)
    kernel = Kernel(machine, aged=True, age_seed=1, **kwargs)
    tm = TintMalloc(kernel=kernel)
    team = ColoredTeam.create(tm, [0], Policy.MEM_LLC)
    memory = MemorySystem.for_machine(machine, **kwargs)
    engine = Engine(team, memory, **kwargs)
    return kernel, tm, team, memory, engine


def run_small_program(team, engine, label="warm"):
    """Write-heavy pass over a fresh 32 KiB region (populates all layers)."""
    va = team.handles[0].malloc(32 * KIB, label=label)
    n = 1024
    vaddrs = va + (np.arange(n, dtype=np.int64) % 512) * 64
    trace = Trace(vaddrs=vaddrs, writes=np.ones(n, dtype=bool), think_ns=1.0,
                  label=label)
    engine.run(Program(sections=[Section(kind="parallel", traces={0: trace},
                                         label=label)],
                       nthreads=team.nthreads, name=label))
    return va


class TestKernelInjection:
    def test_leaked_frame_out_of_color_list(self):
        kernel, tm, team, memory, engine = small_env()
        # Touch pages through the engine (frames are demand-allocated on
        # fault), then free, so the color matrix holds free frames.
        va = run_small_program(team, engine)
        team.handles[0].free(va)
        checker = KernelChecker(kernel)
        checker.check()  # healthy
        # Drop one frame from a color-list deque without updating the
        # state array: the frame is now leaked (state says COLORED_FREE,
        # no structure holds it).
        lists = kernel.page_allocator.colors._lists
        bucket = next(b for b in lists.values() if len(b))
        bucket.popleft()
        with pytest.raises(SanitizeViolation) as exc:
            checker.check()
        assert exc.value.layer == "kernel"
        # Caught either by the count conservation or the color matrix's
        # own structural audit, depending on which bookkeeping went stale.
        assert exc.value.invariant in ("colorlist-count", "colorlist-structure")

    def test_frame_partition_mismatch(self):
        kernel, tm, team, memory, engine = small_env()
        va = run_small_program(team, engine)
        team.handles[0].free(va)
        checker = KernelChecker(kernel)
        checker.check()
        # Swap a buddy frame's state with a colored frame's: totals still
        # conserve, so only the full partition walk can see it.
        state = kernel.pool.state
        buddy_pfn = int(np.flatnonzero(state == int(FrameState.BUDDY))[0])
        col_pfn = int(
            np.flatnonzero(state == int(FrameState.COLORED_FREE))[0]
        )
        state[buddy_pfn] = int(FrameState.COLORED_FREE)
        state[col_pfn] = int(FrameState.BUDDY)
        with pytest.raises(SanitizeViolation) as exc:
            checker.check()
        assert exc.value.layer == "kernel"
        assert exc.value.invariant == "frame-partition"

    def test_stale_owner_on_free_frame(self):
        kernel, *_ = small_env()
        checker = KernelChecker(kernel)
        checker.check()
        free_pfn = int(
            np.flatnonzero(kernel.pool.state != int(FrameState.ALLOCATED))[0]
        )
        kernel.pool.owner[free_pfn] = 7
        with pytest.raises(SanitizeViolation) as exc:
            checker.check()
        assert exc.value.invariant == "owner-stale"


class TestHeapInjection:
    def test_freed_span_on_wrong_list(self):
        kernel, tm, team, memory, engine = small_env()
        team.handles[0].malloc(256, label="a")  # small alloc -> arena
        checker = HeapChecker(tm.heap)
        checker.check()
        # File a bogus slot, far outside every arena chunk, on a free
        # list — "returned to the wrong list".
        arena = next(iter(tm.heap._arenas.values()))
        arena.free_lists.setdefault(64, []).append(0x10)
        with pytest.raises(SanitizeViolation) as exc:
            checker.check()
        assert exc.value.layer == "alloc"
        assert exc.value.invariant == "free-outside-arena"

    def test_live_allocation_also_on_free_list(self):
        kernel, tm, team, memory, engine = small_env()
        va = team.handles[0].malloc(256, label="a")
        checker = HeapChecker(tm.heap)
        checker.check()
        arena = next(iter(tm.heap._arenas.values()))
        arena.free_lists.setdefault(256, []).append(va)
        with pytest.raises(SanitizeViolation) as exc:
            checker.check()
        assert exc.value.invariant == "free-live-overlap"

    def test_byte_accounting_drift(self):
        kernel, tm, team, memory, engine = small_env()
        team.handles[0].malloc(1 * KIB, label="a")
        checker = HeapChecker(tm.heap)
        checker.check()
        tm.heap.bytes_allocated += 64
        with pytest.raises(SanitizeViolation) as exc:
            checker.check_fast()
        assert exc.value.invariant == "bytes-accounting"


class TestCacheInjection:
    def test_line_moved_to_wrong_set(self):
        kernel, tm, team, memory, engine = small_env()
        run_small_program(team, engine)
        checker = CacheChecker(memory.hierarchy)
        checker.check()
        llc = memory.hierarchy.llc
        # Move a resident line into a set it does not index to —
        # corrupted LRU bookkeeping.
        idx, entries = next(
            (i, s) for i, s in enumerate(llc._sets) if len(s)
        )
        line, dirty = next(iter(entries.items()))
        del entries[line]
        wrong = (idx + 1) % llc.num_sets
        assert llc.set_of_line(line) != wrong
        llc._sets[wrong][line] = dirty
        with pytest.raises(SanitizeViolation) as exc:
            checker.check()
        assert exc.value.layer == "cache"
        assert exc.value.invariant == "line-misplaced"

    def test_set_overflow(self):
        kernel, tm, team, memory, engine = small_env()
        run_small_program(team, engine)
        checker = CacheChecker(memory.hierarchy)
        checker.check()
        llc = memory.hierarchy.llc
        # Stuff one set past its associativity with correctly-indexed
        # phantom lines.
        idx = 0
        line = idx
        added = 0
        while added <= llc._ways:
            if llc.set_of_line(line) == idx and line not in llc._sets[idx]:
                llc._sets[idx][line] = False
                added += 1
            line += llc.num_sets
        with pytest.raises(SanitizeViolation) as exc:
            checker.check()
        assert exc.value.invariant == "set-overflow"

    def test_dirty_eviction_accounting_mismatch(self):
        kernel, tm, team, memory, engine = small_env()
        run_small_program(team, engine)
        checker = CacheChecker(memory.hierarchy)
        checker.check()
        # A dirty eviction that never reached DRAM as a write-back.
        memory.hierarchy.dirty_evictions += 1
        with pytest.raises(SanitizeViolation) as exc:
            checker.check_fast()
        assert exc.value.invariant == "dirty-writeback-accounting"


class TestDramInjection:
    def test_bank_busy_rewind(self):
        kernel, tm, team, memory, engine = small_env()
        run_small_program(team, engine)
        checker = DramChecker(memory.dram)
        checker.check()
        busy = memory.dram.bank_busy
        color = max(range(len(busy)), key=busy.__getitem__)
        assert busy[color] > 0.0
        busy[color] *= 0.5  # occupancy may only book forward
        with pytest.raises(SanitizeViolation) as exc:
            checker.check()
        assert exc.value.layer == "dram"
        assert exc.value.invariant == "bank-busy-rewind"

    def test_phantom_open_row(self):
        kernel, tm, team, memory, engine = small_env()
        run_small_program(team, engine)
        checker = DramChecker(memory.dram)
        checker.check()
        dram = memory.dram
        idle = next(
            c for c, counts in enumerate(zip(
                dram.bank_hits, dram.bank_misses, dram.bank_conflicts
            )) if sum(counts) == 0
        )
        dram.bank_row[idle] = 5  # a row opened without any request: illegal
        with pytest.raises(SanitizeViolation) as exc:
            checker.check()
        assert exc.value.invariant == "bank-row-phantom"

    def test_stats_drift(self):
        kernel, tm, team, memory, engine = small_env()
        run_small_program(team, engine)
        checker = DramChecker(memory.dram)
        checker.check()
        memory.dram.stats.accesses += 1  # drifted aggregate counter
        with pytest.raises(SanitizeViolation) as exc:
            checker.check_fast()
        assert exc.value.invariant == "row-kind-conservation"


class TestEndToEndSanitizePath:
    def test_corruption_caught_inside_engine_run(self):
        """The full --sanitize full path: violation surfaces from run()."""
        observer = SanitizerObserver.for_level("full", check_every=64)
        kernel, tm, team, memory, engine = small_env(observer=observer)
        observer.sanitizer.attach_engine(engine)
        run_small_program(team, engine)  # healthy run, checks sampled
        assert observer.sanitizer.events_seen > 0
        assert observer.sanitizer.checkpoints > 0
        # Corrupt the LLC between programs; the next run's sampled
        # checks / section checkpoint must abort it.
        llc = memory.hierarchy.llc
        idx, entries = next(
            (i, s) for i, s in enumerate(llc._sets) if len(s)
        )
        line, dirty = next(iter(entries.items()))
        del entries[line]
        llc._sets[(idx + 1) % llc.num_sets][line] = dirty
        with pytest.raises(SanitizeViolation) as exc:
            run_small_program(team, engine, label="after-corruption")
        assert exc.value.layer == "cache"
