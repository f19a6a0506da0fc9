"""The execution engine: merge-by-timestamp replay of a fork-join program.

Within a parallel section every thread holds a private clock; the engine
repeatedly advances the thread with the smallest clock by one memory
access.  Because latencies come from *shared* mutable state (LLC, bank row
buffers, controller/channel/link occupancies), threads perturb each other
exactly as co-running hardware threads do, while the smallest-clock rule
keeps the interleaving deterministic for a given program.
"""

from __future__ import annotations

import heapq
import time
from array import array
from dataclasses import dataclass

import numpy as np

from repro.obs import metrics as obs_metrics

from repro.cache.batch import set_index_batch
from repro.cache.hierarchy import CacheHierarchy, CacheTiming, MemoryLevel
from repro.core.session import ColoredTeam
from repro.dram.system import (
    CACHE_HIT, FAR_MISS, MESH, NCODES, ROW_CONFLICT, ROW_HIT, ROW_MISS,
    DramSystem, RowKind,
)
from repro.dram.timing import DEFAULT_TIMING, DramTiming
from repro.machine.presets import MachineSpec
from repro.obs.observer import NULL_OBSERVER, BaseObserver
from repro.sim.barrier import Program, Section
from repro.sim.metrics import RunMetrics, SectionMetrics, ThreadMetrics


@dataclass
class MemorySystem:
    """Caches + DRAM bundled for one simulated machine."""

    dram: DramSystem
    hierarchy: CacheHierarchy

    @classmethod
    def for_machine(
        cls,
        machine: MachineSpec,
        dram_timing: DramTiming = DEFAULT_TIMING,
        cache_timing: CacheTiming = CacheTiming(),
        prefetch: bool = False,
        observer: BaseObserver = NULL_OBSERVER,
    ) -> "MemorySystem":
        """Build the cache hierarchy + DRAM system for *machine*."""
        dram = DramSystem(
            machine.mapping, machine.topology, dram_timing, observer=observer,
            remote=machine.remote,
        )
        hierarchy = CacheHierarchy(
            machine.topology, dram, cache_timing, prefetch=prefetch,
            observer=observer,
        )
        return cls(dram=dram, hierarchy=hierarchy)


def _plan_fallback(reason: str) -> None:
    """Count one section :meth:`Engine._batch_plan` could not plan.

    Recorded as ``engine.plan_fallback{reason=...}`` only when a metrics
    registry is active; returns None (the "no plan" result) either way.
    """
    mreg = obs_metrics.active()
    if mreg is not None:
        mreg.counter("engine.plan_fallback", reason=reason).inc()
    return None


# Outcome codes the batched loop records per access (see
# Engine._run_section_batched): 0 = L1 hit, 1 = L2 hit, 2 = LLC hit,
# then DramSystem.demand's code for an LLC miss (3-12; table in
# repro.dram.system).
_REMOTE = MESH + FAR_MISS


def _fold_outcomes(dram: DramSystem, llc, threads: list) -> None:
    """Fold one batched section's outcome codes into the shared counters.

    ``threads`` holds, per replayed thread, its :class:`ThreadMetrics`,
    its core's L1 and L2 caches, and its outcome codes and bank colors
    (one per access).  One bincount over ``code * nbanks + bank color``
    per thread gives every count the reference loop increments one
    access at a time: per-code totals are its row sums, per-node ones
    its bank columns summed by node.  Integer sums are exact in any
    order, so the counters end up identical; new ``per_node_accesses``
    keys are added in node order.  (The DRAM cache's probe counters and
    the mesh's transfer count are kept by the demand stage itself.)
    """
    nbanks = len(dram.bank_busy)
    tally = np.zeros((NCODES, nbanks), dtype=np.int64)
    for tm, l1, l2, outs, bcs in threads:
        per = np.bincount(
            np.array(outs, dtype=np.int64) * nbanks
            + np.array(bcs, dtype=np.int64),
            minlength=NCODES * nbanks,
        ).reshape(NCODES, nbanks)
        tally += per
        c = per.sum(axis=1).tolist()
        n = len(outs)
        l1_hits, l2_hits = c[0], c[1]
        tm.accesses += n
        tm.dram_accesses += sum(c[3:])
        tm.remote_accesses += sum(c[k] for k in _REMOTE)
        tm.row_conflicts += sum(c[k] for k in ROW_CONFLICT)
        l1.hits += l1_hits
        l1.misses += n - l1_hits
        l2.hits += l2_hits
        l2.misses += n - l1_hits - l2_hits

    c = tally.sum(axis=1).tolist()
    dram_n = sum(c[3:])
    llc.hits += c[2]
    llc.misses += dram_n
    stats = dram.stats
    stats.accesses += dram_n
    stats.row_hits += c[CACHE_HIT] + sum(c[k] for k in ROW_HIT)
    stats.row_misses += sum(c[k] for k in ROW_MISS)
    stats.row_conflicts += sum(c[k] for k in ROW_CONFLICT)
    remote = sum(c[k] for k in _REMOTE)
    stats.remote_accesses += remote
    stats.local_accesses += dram_n - remote
    stats.remote_cache_hits += c[CACHE_HIT]
    stats.remote_cache_misses += sum(c[k] for k in FAR_MISS)
    by_node = tally.reshape(NCODES, dram.mapping.num_nodes, -1).sum(axis=2)
    per_node = stats.per_node_accesses
    for ndx, cnt in enumerate(by_node[3:].sum(axis=0).tolist()):
        if cnt:
            per_node[ndx] = per_node.get(ndx, 0) + cnt
    for counts, codes in (
        (dram.bank_hits, ROW_HIT),
        (dram.bank_misses, ROW_MISS),
        (dram.bank_conflicts, ROW_CONFLICT),
    ):
        for bc, cnt in enumerate(tally[list(codes)].sum(axis=0).tolist()):
            counts[bc] += cnt


class Engine:
    """Runs :class:`~repro.sim.barrier.Program` objects over a team.

    Sections replay through one of two loops: the planned, batched fast
    loop (:meth:`_run_section_fast`, for sections whose pages are all
    resident) or the reference loop (:meth:`_run_section_reference`,
    which takes every demand fault and carries the observer's hooks when
    tracing is on).  Both produce bit-identical
    :class:`~repro.sim.metrics.RunMetrics`.

    Args:
        team: pinned, colored thread team (allocation policy already set).
        memory: the machine's cache/DRAM state.
        observer: tracing sink; an enabled observer selects the
            reference loop with its tracing hooks, the default
            NullObserver the uninstrumented fast loop.
        fast_path: when True (default) and the observer is disabled,
            sections replay through :meth:`_run_section_fast`.  Set
            False to force :meth:`_run_section_reference`, the
            straightforward loop kept for equivalence testing and as the
            perf baseline (``benchmarks/perf_baseline.py``).
    """

    def __init__(
        self,
        team: ColoredTeam,
        memory: MemorySystem,
        observer: BaseObserver = NULL_OBSERVER,
        fast_path: bool = True,
    ) -> None:
        self.team = team
        self.memory = memory
        self.kernel = team.tm.kernel
        self.space = team.tm.process.address_space
        self.observer = observer
        self.fast_path = fast_path

    # ------------------------------------------------------------------ run
    def run(self, program: Program) -> RunMetrics:
        """Execute the program; returns the paper's four metrics + counters."""
        if program.nthreads != self.team.nthreads:
            raise ValueError(
                f"program built for {program.nthreads} threads, team has "
                f"{self.team.nthreads}"
            )
        metrics = RunMetrics(
            name=program.name,
            policy=self.team.policy.label,
            nthreads=self.team.nthreads,
        )
        metrics.threads = [
            ThreadMetrics(thread=i, core=h.core)
            for i, h in enumerate(self.team.handles)
        ]
        obs = self.observer
        tracing = obs.enabled
        # Ambient labeled metrics (repro.obs.metrics): one check per run
        # and a few observations per *section* — never per access, so
        # the metrics-off path stays inside the ≤3% overhead budget
        # (benchmarks/test_obs_overhead.py) and the metrics-on path adds
        # only section-granularity work.
        mreg = obs_metrics.active()
        host_t0 = time.perf_counter() if mreg is not None else 0.0
        if tracing:
            obs.instant(
                "run.begin", 0.0, track="engine",
                args={"program": program.name, "policy": self.team.policy.label,
                      "nthreads": self.team.nthreads},
            )
        wall = 0.0
        for section in program.sections:
            label = section.label or section.kind
            if tracing:
                obs.span_begin(
                    label, wall, track="engine",
                    args={"kind": section.kind, "accesses": section.accesses},
                )
            faults_before = sum(t.faults for t in metrics.threads)
            fault_ns_before = sum(t.fault_ns for t in metrics.threads)
            ends = self._run_section(section, wall, metrics)
            section_end = max(ends.values())
            sm = SectionMetrics(
                label=section.label, kind=section.kind,
                start=wall, end=section_end,
                accesses=section.accesses,
                faults=sum(t.faults for t in metrics.threads) - faults_before,
                fault_ns=sum(t.fault_ns for t in metrics.threads)
                - fault_ns_before,
            )
            if section.kind == "parallel":
                metrics.barriers += 1
                metrics.parallel_runtime += section_end - wall
                for tidx in section.traces:
                    tm = metrics.threads[tidx]
                    tm.parallel_runtime += ends[tidx] - wall
                    idle = section_end - ends[tidx]
                    tm.idle_time += idle
                    sm.idle += idle
                    if tracing and idle > 0.0:
                        obs.span(
                            "barrier.wait", ends[tidx], section_end,
                            track="threads", tid=tidx,
                            args={"section": label,
                                  "core": metrics.threads[tidx].core},
                        )
            else:
                metrics.serial_runtime += section_end - wall
            if tracing:
                obs.span_end(section_end, track="engine",
                             args={"idle": sm.idle, "faults": sm.faults})
                obs.checkpoint(label, section_end)
            if mreg is not None:
                mreg.histogram(
                    "engine.section_ns", kind=section.kind
                ).observe(section_end - wall)
            metrics.sections.append(sm)
            wall = section_end
        metrics.runtime = wall
        metrics.dram = self.memory.dram.stats
        metrics.cache = self.memory.hierarchy.level_stats()
        obs.finish(wall)
        if mreg is not None:
            host_wall = time.perf_counter() - host_t0
            accesses = sum(t.accesses for t in metrics.threads)
            mreg.counter("engine.runs").inc()
            mreg.counter("engine.accesses").inc(accesses)
            mreg.histogram("engine.run_host_s").observe(host_wall)
            if host_wall > 0:
                mreg.histogram("engine.accesses_per_s").observe(
                    accesses / host_wall
                )
        return metrics

    # ------------------------------------------------------------------ section
    #: A thread keeps executing without re-entering the scheduler heap while
    #: its clock stays within this window of the next-soonest thread.  Small
    #: relative to DRAM latencies, so contention fidelity is preserved while
    #: heap traffic drops severalfold.
    BATCH_SLACK_NS = 60.0

    def _run_section(
        self, section: Section, start: float, metrics: RunMetrics
    ) -> dict[int, float]:
        """Run one section; returns per-thread end times (Algorithm 3's
        ``end[tid]``).

        With tracing off and ``fast_path`` set (the default), the section
        replays through :meth:`_run_section_fast` — the disabled-observer
        path must cost nothing per access (guarded by
        ``benchmarks/test_obs_overhead.py``).  Tracing, or
        ``fast_path=False``, selects :meth:`_run_section_reference`: the
        straightforward loop (same results, no short-circuits) that the
        equivalence tests and the perf baseline compare against, and the
        one that carries the observer's hooks.
        """
        if self.fast_path and not self.observer.enabled:
            return self._run_section_fast(section, start, metrics)
        return self._run_section_reference(section, start, metrics)

    def _run_section_fast(
        self, section: Section, start: float, metrics: RunMetrics
    ) -> dict[int, float]:
        """The zero-observability fast path: plan, then batched replay.

        Two-stage structure (see docs/PERFORMANCE.md for the model):

        1. :meth:`_batch_plan` vectorises all *stateless* per-access work
           for the whole section with numpy — address translation
           (unique-page gather), physical line construction, bank
           colors (one gather from the mapping's per-frame table,
           :meth:`AddressMapping.frame_bank_colors`) and each access's
           set dict at every cache level (indices from
           :func:`repro.cache.batch.set_index_batch`, gathered from the
           caches' object arrays of sets).
        2. :meth:`_run_section_batched` replays the residual *stateful*
           work — cache LRU content, the merge order itself — through a
           lean scalar loop over the plan, bit-identical to the
           reference loop.  An LLC miss and a dirty LLC victim go to
           :class:`DramSystem`'s demand and write-back stages, the ones
           the reference loop reaches through :meth:`DramSystem.access`.
           Event counts are tallied from per-access outcome codes after
           the section.

        A section that first-touches a page and prefetch ablation cannot
        be planned; those sections replay through :meth:`_run_section_reference`,
        which takes every demand fault.  Per-stage wall time is recorded
        in the ambient metrics registry (``engine.kernel_ns{kind=decode|
        replay|scalar_replay}``) so ``repro.obs top`` shows where replay
        time goes: ``replay`` is the batched loop, ``scalar_replay`` the
        reference loop.  Each unplannable section is counted by reason
        (``engine.plan_fallback{reason=fault|prefetch}``).
        """
        t0 = time.perf_counter()
        plan = self._batch_plan(section)
        t1 = time.perf_counter()
        if plan is None:
            ends = self._run_section_reference(section, start, metrics)
            kind = "scalar_replay"
        else:
            ends = self._run_section_batched(section, start, metrics, plan)
            kind = "replay"
        mreg = obs_metrics.active()
        if mreg is not None:
            t2 = time.perf_counter()
            hist = mreg.histogram
            hist("engine.kernel_ns", kind="decode").observe((t1 - t0) * 1e9)
            hist("engine.kernel_ns", kind=kind).observe((t2 - t1) * 1e9)
        return ends

    def _batch_plan(self, section: Section) -> dict[int, tuple] | None:
        """Vectorised per-access precompute for one section, or None.

        Returns one plan tuple per non-empty trace: every access's line
        address, packed in an ``array("q")`` (8 bytes each); plain lists
        of every access's L1, L2 and LLC set dict (the core's private
        sets, the shared LLC's) and write flag; the trace's think time;
        every access's bank color; then the issuing core, its L1 and L2
        caches and its L2 set list (for dirty L1 victims).  The set dicts
        are one gather per level, at the indices
        :func:`~repro.cache.batch.set_index_batch` computes, from the
        hierarchy's object arrays of set dicts.  Bank colors are one
        gather of the trace's unique frames from the mapping's per-frame
        table (out-of-range frames raise ``ValueError``); the color fixes
        the node, so it and the core pick the DRAM route, and the demand
        stage derives the row from the line.  All of it is stateless
        address math, so it can leave the replay loop; everything
        computed here is bit-identical to what
        :meth:`DramSystem.access` derives per access.

        Returns None — the caller replays through
        :meth:`_run_section_reference` — when a trace touches a page not
        yet mapped (the reference loop takes the demand fault) or when
        prefetchers are on (their fills are not modelled by the batched
        loop).  Each such fallback is counted by reason when a metrics
        registry is active.
        """
        hierarchy = self.memory.hierarchy
        if hierarchy.prefetchers is not None:
            return _plan_fallback("prefetch")
        dram = self.memory.dram
        mapping = dram.mapping
        page_bits = mapping.page_bits
        page_mask = (1 << page_bits) - 1
        line_bits = hierarchy._line_bits
        page_line_shift = page_bits - line_bits
        topo = hierarchy.topology
        l1_geom, l2_geom = topo.l1, topo.l2
        l1_set_mask = l1_geom.num_sets - 1
        l2_set_mask = l2_geom.num_sets - 1
        llc_mask = hierarchy._llc_mask
        l1_tables = hierarchy._l1_set_tables
        l2_tables = hierarchy._l2_set_tables
        llc_table = hierarchy._llc_set_table
        page_table_get = self.space.page_table.get
        handles = self.team.handles
        plans: dict[int, tuple] = {}
        for tidx, trace in section.traces.items():
            if len(trace) == 0:
                continue
            va = trace.vaddrs
            uvpn, inv = np.unique(va >> page_bits, return_inverse=True)
            upfns = [page_table_get(v) for v in uvpn.tolist()]
            if None in upfns:
                return _plan_fallback("fault")
            core = handles[tidx].core
            pfns_u = np.asarray(upfns, dtype=np.int64)
            lines = (pfns_u[inv] << page_line_shift) | (
                (va & page_mask) >> line_bits
            )
            bc_u = mapping.frame_bank_colors(pfns_u)
            # The set lists hold each access's set dict itself, one
            # gather per level from the cache's object array of sets.
            plans[tidx] = (
                array("q", lines.tobytes()),
                l1_tables[core][set_index_batch(
                    lines, l1_geom.index_bits, l1_set_mask, True
                )].tolist(),
                l2_tables[core][set_index_batch(
                    lines, l2_geom.index_bits, l2_set_mask, True
                )].tolist(),
                llc_table[lines & llc_mask].tolist(),
                trace.writes.tolist(), trace.think_ns,
                bc_u[inv].tolist(),
                core, hierarchy.l1[core], hierarchy.l2[core],
                hierarchy._l2_sets[core],
            )
        return plans

    def _run_section_batched(
        self,
        section: Section,
        start: float,
        metrics: RunMetrics,
        plans: dict[int, tuple],
    ) -> dict[int, float]:
        """Replay a section over a :meth:`_batch_plan` — the hot loop.

        The merge-by-timestamp schedule (heap + batching window) is
        replicated exactly from :meth:`_run_section_reference`; what
        changed is the per-access body: every address-derived value
        comes from the plan and the cache hierarchy is inlined (no
        :class:`HierarchyResult`/``AccessResult`` allocation).  DRAM
        timing is not: an LLC miss calls :meth:`DramSystem.demand` with
        the plan's bank color and the line, and a dirty LLC victim calls
        :meth:`DramSystem.writeback`, the same stages the reference loop
        runs, over the same shared state in the same order.

        Each thread's state list unpacks the plan tuple (see
        :meth:`_batch_plan`): the per-access sequences — line, L1/L2/LLC
        set dict, write flag — the think time, the bank colors, then the
        core and its L2 set list, which L1 victims are written down through.
        The loop never computes a set index of the accessed line.  Its
        probes test ``line in s`` and pop and reinsert only on a hit,
        and its evictions take the LRU line with ``for old in s:
        break``; the reference path keeps ``pop(line, _ABSENT)`` and
        ``next(iter(s))``, so the equivalence tests compare two
        independently written probe and evict idioms.

        Event counts are not kept in the loop.  Each access that misses
        the L1 records one outcome code (the demand stage's for an LLC
        miss) in its thread's list, and :func:`_fold_outcomes` tallies
        the codes by bank after the section.  Integer sums are exact in
        any order, so the tally equals the reference loop's per-access
        increments.

        Every page the section touches is resident (:meth:`_batch_plan`
        plans no section that would fault), so no access takes a fault.
        """
        hierarchy = self.memory.hierarchy
        dram = self.memory.dram
        demand = dram.demand
        writeback = dram.writeback
        timing = hierarchy.timing
        l1_hit_t = timing.l1_hit
        l2_hit_t = timing.l2_hit
        llc_hit_t = timing.llc_hit
        l1_ways = hierarchy._l1_ways
        l2_ways = hierarchy._l2_ways
        llc_ways = hierarchy._llc_ways
        l2_ib = hierarchy._l2_ib
        l2_ib2 = l2_ib + l2_ib
        l2_mask = hierarchy._l2_mask
        llc_sets = hierarchy._llc_sets
        llc_mask = hierarchy._llc_mask
        pop = heapq.heappop
        replace = heapq.heapreplace
        slack = self.BATCH_SLACK_NS
        inf = float("inf")
        threads = metrics.threads
        de_n = hierarchy.dirty_evictions

        def spill_insert(llc_set: dict, line: int, now: float) -> None:
            # Absent-line half of CacheHierarchy._spill_to_llc (callers
            # handle the already-present fast path inline): evict the
            # set's LRU line, write a dirty victim back, insert dirty.
            nonlocal de_n
            if len(llc_set) >= llc_ways:
                for old in llc_set:
                    break
                if llc_set.pop(old):
                    de_n += 1
                    writeback(old, now)
            llc_set[line] = True

        states: dict[int, list] = {}
        heap: list[tuple[float, int]] = []
        for tidx in section.traces:
            plan = plans.get(tidx)
            if plan is None:
                continue
            n = len(plan[0])
            # Mutable per-thread state: cursor, trace length, the plan's
            # per-access sequences and think time, the core and its L2
            # set list, and the outcome code of every access.
            states[tidx] = [0, n, *plan[:8], plan[10], [0] * n]
            heapq.heappush(heap, (start, tidx))
        ends: dict[int, float] = {tidx: start for tidx in section.traces}
        if not heap:
            return ends

        while heap:
            clock, tidx = heap[0]
            state = states[tidx]
            (i, n, lines, l1s, l2s, llcs, writes, think, bcs, core,
             l2_sets_c, outs) = state
            # Burst window.  The root is peeked, not popped; the heap
            # minimum *after* removing the root is the smaller of the
            # root's two children, so the horizon matches the reference
            # loop's pop-then-peek exactly while letting the burst end
            # with a single heapreplace instead of a pop + push.
            m = len(heap)
            if m > 2:
                a = heap[1][0]
                b = heap[2][0]
                horizon = (a if a < b else b) + slack
            elif m == 2:
                horizon = heap[1][0] + slack
            else:
                horizon = inf

            while True:
                line = lines[i]
                entries = l1s[i]
                if line in entries:
                    entries[line] = entries.pop(line) or writes[i]
                    lat = l1_hit_t
                else:
                    is_w = writes[i]
                    l2_set = l2s[i]
                    if line in l2_set:
                        # L2 hit: refresh LRU (the L1 fill follows).
                        outs[i] = 1
                        l2_set[line] = l2_set.pop(line) or is_w
                        lat = l2_hit_t
                    else:
                        llc_set = llcs[i]
                        if line in llc_set:
                            outs[i] = 2
                            llc_set[line] = llc_set.pop(line) or is_w
                            lat = llc_hit_t
                        else:
                            dram_lat, outs[i], _ = demand(
                                bcs[i], line, core, clock, is_w
                            )
                            # LLC fill: evict the set's LRU line (dirty
                            # victims post write-backs), install the line.
                            if len(llc_set) >= llc_ways:
                                for old in llc_set:
                                    break
                                if llc_set.pop(old):
                                    de_n += 1
                                    writeback(old, clock)
                            llc_set[line] = is_w
                            lat = llc_hit_t + dram_lat
                        # _fill_private's L2 insert, inlined (the probe
                        # above proved absence).
                        if len(l2_set) >= l2_ways:
                            for old in l2_set:
                                break
                            old_dirty = l2_set.pop(old)
                            l2_set[line] = False
                            if old_dirty:
                                sset = llc_sets[old & llc_mask]
                                if old in sset:
                                    sset[old] = True
                                else:
                                    spill_insert(sset, old, clock)
                        else:
                            l2_set[line] = False
                    # L1 fill after an L2 hit or miss (the probe above
                    # proved absence): a dirty victim goes down to the L2,
                    # or to the LLC when the L2 no longer holds it.
                    if len(entries) >= l1_ways:
                        for old in entries:
                            break
                        old_dirty = entries.pop(old)
                        entries[line] = is_w
                        if old_dirty:
                            down = l2_sets_c[
                                (old ^ (old >> l2_ib) ^ (old >> l2_ib2))
                                & l2_mask
                            ]
                            if old in down:
                                down[old] = True
                            else:
                                sset = llc_sets[old & llc_mask]
                                if old in sset:
                                    sset[old] = True
                                else:
                                    spill_insert(sset, old, clock)
                    else:
                        entries[line] = is_w
                clock += think + lat

                i += 1
                if i == n:
                    ends[tidx] = clock
                    pop(heap)
                    break
                if clock > horizon:
                    state[0] = i
                    replace(heap, (clock, tidx))
                    break

        hierarchy.dirty_evictions = de_n
        _fold_outcomes(dram, hierarchy.llc, [
            (threads[tidx], plans[tidx][8], plans[tidx][9], state[11],
             state[8])
            for tidx, state in states.items()
        ])
        return ends

    def _run_section_reference(
        self, section: Section, start: float, metrics: RunMetrics
    ) -> dict[int, float]:
        """The straightforward replay loop (the *slow path*).

        Every access enters :meth:`CacheHierarchy.access`, which is
        built from :class:`~repro.cache.cache.Cache`'s property-tested
        ``lookup``/``insert``/``mark_dirty`` and
        :meth:`DramSystem.access`'s stages, and per-thread counters
        update one access at a time.  It is kept as the behavioural
        reference: ``tests/test_sim_engine_equivalence.py`` asserts the
        fast path reproduces its :class:`RunMetrics` bit-for-bit (both
        loops run the same DRAM stages, so that checks the inlined cache
        hierarchy, the merge schedule and the outcome tally), and
        ``benchmarks/perf_baseline.py`` measures the fast path's speedup
        against it.  It also replays the sections the fast path cannot
        plan (first touches and prefetch ablation).

        With tracing on it adds the observability hooks, per access: the
        observer's sim-time cursor (so kernel events carry timestamps), a
        span per page-fault service, and the counter-sampling cadence
        check.  DRAM transaction spans are emitted by
        :class:`~repro.dram.system.DramSystem` itself.
        """
        # Per-thread replay state.
        states: dict[int, list] = {}
        heap: list[tuple[float, int]] = []
        for tidx, trace in section.traces.items():
            if len(trace) == 0:
                continue
            vaddrs, writes, think = trace.as_lists()
            handle = self.team.handles[tidx]
            states[tidx] = [0, vaddrs, writes, think, handle.task, handle.core]
            heapq.heappush(heap, (start, tidx))
        ends: dict[int, float] = {tidx: start for tidx in section.traces}
        if not heap:
            return ends

        # Local bindings for the hot loop.
        page_bits = self.kernel.mapping.page_bits
        page_mask = (1 << page_bits) - 1
        page_table = self.space.page_table
        translate = self.space.translate
        access = self.memory.hierarchy.access
        kernel = self.kernel
        threads = metrics.threads
        DRAM = MemoryLevel.DRAM
        CONFLICT = RowKind.CONFLICT
        push, pop = heapq.heappush, heapq.heappop
        slack = self.BATCH_SLACK_NS
        inf = float("inf")
        obs = self.observer
        tracing = obs.enabled

        while heap:
            clock, tidx = pop(heap)
            state = states[tidx]
            i, vaddrs, writes, think, task, core = state
            tm = threads[tidx]
            n = len(vaddrs)
            # Run this thread until it overtakes the next-soonest thread
            # (plus slack) or finishes its trace.
            horizon = (heap[0][0] + slack) if heap else inf

            while True:
                vaddr = vaddrs[i]
                vpn = vaddr >> page_bits
                pfn = page_table.get(vpn)
                fault_ns = 0.0
                if pfn is None:
                    # Demand fault under the faulting task's policy.
                    if tracing:
                        obs.now = clock
                    paddr, _ = translate(vaddr, task)
                    fault_ns = kernel.last_fault_charge.total_ns
                    tm.faults += 1
                    tm.fault_ns += fault_ns
                    if tracing:
                        obs.span(
                            "fault", clock, clock + fault_ns,
                            track="threads", tid=tidx,
                            args={"vpn": vpn, "core": core},
                        )
                else:
                    paddr = (pfn << page_bits) | (vaddr & page_mask)

                result = access(paddr, core, clock, writes[i])
                tm.accesses += 1
                if result.level is DRAM:
                    dram = result.dram
                    tm.dram_accesses += 1
                    if dram.hops:
                        tm.remote_accesses += 1
                    if dram.row_kind is CONFLICT:
                        tm.row_conflicts += 1

                clock += think + result.latency + fault_ns
                if tracing:
                    obs.maybe_sample(clock)
                i += 1
                if i >= n:
                    ends[tidx] = clock
                    break
                if clock > horizon:
                    state[0] = i
                    push(heap, (clock, tidx))
                    break
        return ends
