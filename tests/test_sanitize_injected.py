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

import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest

import repro.sanitize

from repro.alloc.policies import Policy
from repro.core.session import ColoredTeam
from repro.core.tintmalloc import TintMalloc
from repro.kernel.buddy import BuddyAllocator
from repro.kernel.colorlist import ColorMatrix
from repro.kernel.frame import FramePool, FrameState
from repro.kernel.kernel import Kernel
from repro.machine.presets import tiny_machine
from repro.sanitize.fuzz import FUZZ_PRESETS
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


# -- one injected violation per law -----------------------------------------
#
# Each law a checker in ``sanitize/*_check.py`` can report gets one
# corruption below that breaks it and nothing the checker tests before
# it, so the report names exactly that law.  ``test_every_law_is_injected``
# keeps the table complete: a new law without an injection fails it.


def churned_env(machine=None):
    """A sanitizable environment with every kind of state populated:
    buddy, colored-free and allocated frames, mapped pages, live and
    freed arena slots, warm caches and banks."""
    machine = machine or tiny_machine(8 * MIB)
    kernel = Kernel(machine, aged=True, age_seed=1)
    tm = TintMalloc(kernel=kernel)
    team = ColoredTeam.create(tm, [0], Policy.MEM_LLC)
    memory = MemorySystem.for_machine(machine)
    engine = Engine(team, memory)
    freed = run_small_program(team, engine, label="freed")
    run_small_program(team, engine, label="kept")
    team.handles[0].free(freed)
    h = team.handles[0]
    h.malloc(256, label="live")
    h.free(h.malloc(256, label="slot"))
    return kernel, tm, team, memory, engine


def _frames(kernel, state):
    return np.flatnonzero(kernel.pool.state == int(state)).tolist()


def _buddy_and_frame(kernel):
    """(node buddy, one of its free frames) for the first non-empty node."""
    for buddy in kernel.page_allocator.node_buddies:
        blocks = buddy.blocks(0)
        if blocks:
            return buddy, blocks[0]
    raise AssertionError("no order-0 buddy block")


def _bucket(kernel):
    return next(b for b in kernel.page_allocator.colors._lists.values() if b)


def _set_state(kernel, state, to):
    kernel.pool.state[_frames(kernel, state)[0]] = to


def _mapped(kernel):
    """(page table, one mapped (vpn, pfn)) of the first process."""
    proc = next(iter(kernel.processes.values()))
    table = proc.address_space.page_table
    return table, next(iter(table.items()))


def _buddy_index_out_of_sync(kernel):
    buddy, pfn = _buddy_and_frame(kernel)
    buddy._block_order[pfn] = 1  # an order-0 block indexed as order 1


def _buddy_duplicate(kernel):
    b0, pfn = _buddy_and_frame(kernel)
    other = next(b for b in kernel.page_allocator.node_buddies
                 if b is not b0 and b.blocks(0))
    other.pop_head(0)
    other._insert(pfn, 0)  # same frame free on two nodes; counts unchanged


def _colorlist_duplicate(kernel):
    bucket = _bucket(kernel)
    bucket.append(bucket[0])
    # Keep the counts conserved: one more colored-free frame by count.
    kernel.page_allocator.colors.total_free += 1
    _set_state(kernel, FrameState.ALLOCATED, int(FrameState.COLORED_FREE))


def _free_list_overlap(kernel):
    pfn = _bucket(kernel)[0]
    buddy, _ = _buddy_and_frame(kernel)
    buddy.pop_head(0)
    buddy._insert(pfn, 0)


def _colorlist_misfiled(kernel):
    lists = kernel.page_allocator.colors._lists
    src = _bucket(kernel)
    dst = next(b for b in lists.values() if b is not src)
    dst.append(src.pop())


def _swap_states(kernel):
    """A buddy frame and a colored-free one trade states: every count
    holds, only the frame-by-frame walk can tell."""
    b = _frames(kernel, FrameState.BUDDY)[0]
    c = _frames(kernel, FrameState.COLORED_FREE)[0]
    kernel.pool.state[[b, c]] = kernel.pool.state[[c, b]]


def _colored_not_listed(kernel):
    """An allocated frame and a listed colored-free one trade states: the
    buddy side matches, the color matrix does not."""
    a = _frames(kernel, FrameState.ALLOCATED)[0]
    c = _bucket(kernel)[0]
    kernel.pool.state[[a, c]] = kernel.pool.state[[c, a]]


def _owner(kernel, tid):
    kernel.pool.owner[_frames(kernel, FrameState.ALLOCATED)[0]] = tid


def _alias(kernel):
    table, (vpn, pfn) = _mapped(kernel)
    table[max(table) + 1000] = pfn


def _map_free(kernel):
    table, _ = _mapped(kernel)
    table[max(table) + 1000] = _frames(kernel, FrameState.BUDDY)[0]


def _heap_arena(tm):
    return next(iter(tm.heap._arenas.values()))


def _live_slot(tm):
    return next(i for i in tm.heap._live.values() if i.size_class is not None)


def _live_index(tm):
    info = _live_slot(tm)
    del tm.heap._live[info.va]
    tm.heap._live[info.va + 1] = info


def _class_too_small(tm):
    info = _live_slot(tm)
    tm.heap._live[info.va] = dataclasses.replace(
        info, size_class=info.size_class // 2
    )


def _double_listed(tm):
    cls, frees = next((c, f) for c, f in _heap_arena(tm).free_lists.items() if f)
    frees.append(frees[0])


def _overlapping_spans(tm):
    info = _live_slot(tm)
    _heap_arena(tm).free_lists.setdefault(64, []).append(info.va + 64)


def _stats(memory):
    return memory.dram.stats


def _served_bank(memory):
    dram = memory.dram
    return next(c for c in range(len(dram.bank_busy))
                if dram.bank_hits[c] + dram.bank_misses[c] + dram.bank_conflicts[c])


def _more_accesses(memory, **extra):
    s = _stats(memory)
    s.accesses += 1
    s.row_hits += 1
    for name, delta in extra.items():
        setattr(s, name, getattr(s, name) + delta)


def _per_node(memory):
    _more_accesses(memory, local_accesses=1)


def _net_busy_illegal(memory):
    memory.dram._net_busy[1] = -1.0


#: law -> (layer, injection).  The injection takes the environment's
#: kernel ("kernel"), TintMalloc ("alloc") or MemorySystem ("cache",
#: "dram").  A law reported from two places has a second key, the law
#: name plus a parenthesised note.
LAWS = {
    # kernel_check.py
    "buddy-count": ("kernel", lambda k: _set_state(
        k, FrameState.BUDDY, int(FrameState.ALLOCATED))),
    "colorlist-count": ("kernel", lambda k: _set_state(
        k, FrameState.COLORED_FREE, int(FrameState.ALLOCATED))),
    "frame-conservation": ("kernel", lambda k: _set_state(
        k, FrameState.ALLOCATED, 3)),  # a state no count includes
    "buddy-structure": ("kernel", _buddy_index_out_of_sync),
    "colorlist-structure": ("kernel", _colorlist_misfiled),
    "buddy-duplicate": ("kernel", _buddy_duplicate),
    "colorlist-duplicate": ("kernel", _colorlist_duplicate),
    "free-list-overlap": ("kernel", _free_list_overlap),
    "frame-partition": ("kernel", _swap_states),
    "frame-partition (colored)": ("kernel", _colored_not_listed),
    "owner-missing": ("kernel", lambda k: _owner(k, -1)),
    "owner-unknown": ("kernel", lambda k: _owner(k, 999)),
    "owner-stale": ("kernel", lambda k: k.pool.owner.__setitem__(
        _frames(k, FrameState.BUDDY)[0], 7)),
    "pfn-aliased": ("kernel", _alias),
    "mapped-not-allocated": ("kernel", _map_free),
    # alloc_check.py
    "bytes-accounting": ("alloc", lambda tm: setattr(
        tm.heap, "bytes_allocated", tm.heap.bytes_allocated + 64)),
    "count-accounting": ("alloc", lambda tm: setattr(
        tm.heap, "allocation_count", 0)),
    "bump-overrun": ("alloc", lambda tm: setattr(
        _heap_arena(tm), "bump_ptr", _heap_arena(tm).bump_end + 16)),
    "live-index": ("alloc", _live_index),
    "class-too-small": ("alloc", _class_too_small),
    "bad-class": ("alloc", lambda tm: _heap_arena(tm).free_lists
                  .__setitem__(48, [])),
    "free-live-overlap": ("alloc", lambda tm: _heap_arena(tm).free_lists
                          .setdefault(256, []).append(_live_slot(tm).va)),
    "double-listed": ("alloc", _double_listed),
    "free-outside-arena": ("alloc", lambda tm: _heap_arena(tm).free_lists
                           .setdefault(64, []).append(0x10)),
    "overlapping-spans": ("alloc", _overlapping_spans),
    # cache_check.py
    "counter-negative": ("cache", lambda m: setattr(
        m.hierarchy.l1[0], "hits", -1)),
    "counter-rewind": ("cache", lambda m: setattr(
        m.hierarchy.l1[0], "misses", m.hierarchy.l1[0].misses - 1)),
    "l1-l2-conservation": ("cache", lambda m: setattr(
        m.hierarchy.l2[0], "hits", m.hierarchy.l2[0].hits + 1)),
    "l2-llc-conservation": ("cache", lambda m: setattr(
        m.hierarchy.llc, "hits", m.hierarchy.llc.hits + 1)),
    "llc-dram-conservation": ("cache", lambda m: setattr(
        _stats(m), "accesses", _stats(m).accesses + 1)),
    "dirty-writeback-accounting": ("cache", lambda m: setattr(
        m.hierarchy, "dirty_evictions", m.hierarchy.dirty_evictions + 1)),
    "set-overflow": ("cache", lambda m: m.hierarchy.llc._sets[0].update(
        {line: False for line in range(
            1 << 40, (1 << 40) + m.hierarchy.llc.num_sets
            * (m.hierarchy.llc._ways + 1), m.hierarchy.llc.num_sets)})),
    "line-misplaced": ("cache", lambda m: m.hierarchy.llc._sets[0].__setitem__(
        1, False)),
    # dram_check.py
    "row-kind-conservation": ("dram", lambda m: setattr(
        _stats(m), "accesses", _stats(m).accesses + 1)),
    "locality-conservation": ("dram", _more_accesses),
    "per-node-conservation": ("dram", _per_node),
    "remote-cache-hit-conservation": ("dram", lambda m: setattr(
        _stats(m), "remote_cache_hits", _stats(m).local_accesses + 1)),
    "remote-cache-miss-conservation": ("dram", lambda m: setattr(
        _stats(m), "remote_cache_misses", _stats(m).remote_accesses + 1)),
    "queue-wait-decomposition": ("dram", lambda m: setattr(
        _stats(m), "wait_ctrl", _stats(m).wait_ctrl + 1000.0)),
    "stat-negative": ("dram", lambda m: setattr(
        _stats(m), "total_latency", -1.0)),
    "stat-nonfinite": ("dram", lambda m: setattr(
        _stats(m), "total_latency", float("inf"))),
    "stat-rewind": ("dram", lambda m: setattr(
        _stats(m), "total_latency", _stats(m).total_latency / 2)),
    "bank-busy-illegal": ("dram", lambda m: m.dram.bank_busy.__setitem__(
        _served_bank(m), float("nan"))),
    "bank-busy-rewind": ("dram", lambda m: m.dram.bank_busy.__setitem__(
        _served_bank(m), m.dram.bank_busy[_served_bank(m)] / 2)),
    "bank-counter-negative": ("dram", lambda m: m.dram.bank_hits.__setitem__(
        _served_bank(m), -1)),
    "bank-row-illegal": ("dram", lambda m: m.dram.bank_row.__setitem__(
        _served_bank(m), -1)),
    "bank-row-phantom": ("dram", lambda m: m.dram.bank_row.__setitem__(
        next(c for c, row in enumerate(m.dram.bank_row) if row is None), 5)),
    "bank-queue-conservation": ("dram", lambda m: m.dram.bank_hits.__setitem__(
        _served_bank(m), m.dram.bank_hits[_served_bank(m)] + 1)),
    "ctrl-busy-illegal": ("dram", lambda m: m.dram._ctrl_busy.__setitem__(
        0, -1.0)),
    "chan-busy-illegal": ("dram", lambda m: m.dram._chan_busy.__setitem__(
        0, float("inf"))),
    "net-busy-illegal": ("dram", _net_busy_illegal),
}

#: layer -> (checker, index of the injection target in
#: :func:`churned_env`'s tuple, the checked part of that target).
_LAYERS = {
    "kernel": (KernelChecker, 0, lambda kernel: kernel),
    "alloc": (HeapChecker, 1, lambda tm: tm.heap),
    "cache": (CacheChecker, 3, lambda memory: memory.hierarchy),
    "dram": (DramChecker, 3, lambda memory: memory.dram),
}


def _law_names() -> set[str]:
    """Every law name a checker module passes to ``Checker.fail``."""
    names: set[str] = set()
    for path in Path(repro.sanitize.__file__).parent.glob("*_check.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "fail"):
                names.add(node.args[0].value)
    return names


def test_every_law_is_injected():
    assert {key.split(" ")[0] for key in LAWS} == _law_names()


@pytest.mark.parametrize("law", sorted(LAWS))
def test_injected_violation_names_its_law(law):
    layer, inject = LAWS[law]
    law = law.split(" ")[0]
    machine = (FUZZ_PRESETS["tiny_disagg"](8 * MIB)
               if law == "net-busy-illegal" else None)
    env = churned_env(machine)
    cls, index, part = _LAYERS[layer]
    target = env[index]
    checker = cls(part(target))
    checker.check()  # healthy, and the baseline for the rewind laws
    inject(target)
    with pytest.raises(SanitizeViolation) as exc:
        checker.check()
    assert (exc.value.layer, exc.value.invariant) == (layer, law)


def _stale_without_entry(b):
    b._stale[0][12345] = 1  # a stale count with no FIFO entry behind it


def _misaligned(b):
    b._fifos[6][0] = 1
    b._block_order = {1: 6}


def _overlapping(b):
    b._insert(2, 1)  # frames 2-3, inside the free order-6 block at 0


def _uncoalesced(b):
    b.alloc(0)  # frame 0 taken; frame 1 is free at order 0
    b._insert(0, 0)  # frame 0 back without coalescing with frame 1


#: ``BuddyAllocator.check_invariants`` message -> corruption of a fresh
#: allocator over frames [0, 64) (one free order-6 block).
BUDDY_BREAKS = {
    "live count out of sync": lambda b: b._live.__setitem__(6, 2),
    "stale count out of sync": _stale_without_entry,
    "misaligned block": _misaligned,
    "block index out of sync": lambda b: b._block_order.__setitem__(0, 5),
    "overlapping free blocks": _overlapping,
    "uncoalesced buddies": _uncoalesced,
    "block index size mismatch": lambda b: b._block_order.__setitem__(999, 0),
}


@pytest.mark.parametrize("message", sorted(BUDDY_BREAKS))
def test_buddy_check_invariants_raises(message):
    buddy = BuddyAllocator(0, 64)
    buddy.check_invariants()
    BUDDY_BREAKS[message](buddy)
    with pytest.raises(AssertionError, match=message):
        buddy.check_invariants()


def _refile(colors, dmem, dllc):
    """Move the one listed frame's bucket, with consistent indexes, to a
    (bank, LLC) key its own colors do not match."""
    (mem, llc), bucket = colors._lists.popitem()
    key = (mem + dmem, llc + dllc)
    colors._lists[key] = bucket
    colors._llc_of_mem = {key[0]: {key[1]: None}}
    colors._mem_of_llc = {key[1]: {key[0]: None}}


#: ``ColorMatrix.check_invariants`` message -> corruption of a matrix
#: holding one free frame.
COLOR_BREAKS = {
    "llc_of_mem index stale": lambda c: c._llc_of_mem.clear(),
    "mem_of_llc index stale": lambda c: c._mem_of_llc.clear(),
    "on wrong mem list": lambda c: _refile(c, 1, 0),
    "on wrong llc list": lambda c: _refile(c, 0, 1),
    "total_free counter out of sync": lambda c: setattr(
        c, "total_free", c.total_free + 1),
}


@pytest.mark.parametrize("message", sorted(COLOR_BREAKS))
def test_color_matrix_check_invariants_raises(message):
    colors = ColorMatrix(FramePool(tiny_machine(8 * MIB).mapping))
    colors.push(0)
    colors.check_invariants()
    COLOR_BREAKS[message](colors)
    with pytest.raises(AssertionError, match=message):
        colors.check_invariants()
