"""Fast path == reference path, bit for bit.

The engine's batched fast path (`Engine._run_section_fast`) must produce
*bit-identical* results to the straightforward reference loop
(`Engine._run_section_reference`) — not approximately equal: the same
floats in every latency sum, the same integers in every counter.  These
tests run real fig. 10/fig. 11 workloads through both paths (and through
the traced path with a recording observer) and compare complete metric
snapshots with exact equality.

If one of these tests fails after an engine/hierarchy/DRAM change, the
fast path has drifted from the model's semantics; fix the drift, never
loosen the comparison.
"""

from __future__ import annotations

import dataclasses
import json
from collections import Counter

import pytest

from repro.alloc.policies import Policy
from repro.core.session import ColoredTeam
from repro.core.tintmalloc import TintMalloc
from repro.experiments.configs import CONFIGS
from repro.experiments.runner import (
    _fresh_environment,
    profile_machine,
    profile_scale,
)
from repro.kernel.kernel import Kernel
from repro.obs import Observer
from repro.sim.engine import Engine, MemorySystem
from repro.sim.metrics import RunMetrics
from repro.util.rng import RngStream
from repro.workloads.base import build_spmd_program
from repro.workloads.registry import get_workload
from repro.workloads.synthetic import SyntheticSpec, build_synthetic_program

CONFIG = "16_threads_4_nodes"
PROFILE = "mini"


def snapshot(metrics: RunMetrics) -> dict:
    """Everything a run produced, as plain comparable values."""
    return {
        "summary": metrics.summary(),
        "runtime": metrics.runtime,
        "threads": [dataclasses.asdict(t) for t in metrics.threads],
        "sections": [dataclasses.asdict(s) for s in metrics.sections],
        "dram": dataclasses.asdict(metrics.dram),
        "cache": {
            name: (lvl.hits, lvl.misses) for name, lvl in metrics.cache.items()
        },
    }


def fig11_engine(bench: str, policy: Policy, *, fast: bool,
                 traced: bool = False):
    """A fresh 4-node Opteron engine after one fig. 11 run, and its
    metrics."""
    observer = Observer() if traced else None
    kwargs = {"observer": observer} if observer is not None else {}
    team, engine = _fresh_environment(
        CONFIGS[CONFIG], policy, profile_machine(PROFILE), age_seed=0, **kwargs
    )
    engine.fast_path = fast
    spec = get_workload(bench).scaled(profile_scale(PROFILE))
    program = build_spmd_program(spec, team, RngStream(0, bench, CONFIG))
    return engine, engine.run(program)


def run_fig11(bench: str, policy: Policy, *, fast: bool, traced: bool = False):
    return snapshot(fig11_engine(bench, policy, fast=fast, traced=traced)[1])


def run_fig10(policy: Policy, *, fast: bool):
    team, engine = _fresh_environment(
        CONFIGS[CONFIG], policy, profile_machine(PROFILE), age_seed=0
    )
    engine.fast_path = fast
    spec = SyntheticSpec(per_thread_bytes=64 * 1024)
    program = build_synthetic_program(spec, team)
    return snapshot(engine.run(program))


@pytest.mark.parametrize("bench", ["lbm", "blackscholes"])
@pytest.mark.parametrize("policy", [Policy.BUDDY, Policy.MEM_LLC])
def test_fig11_fast_equals_reference(bench, policy):
    fast = fig11_engine(bench, policy, fast=True)[1]
    ref = fig11_engine(bench, policy, fast=False)[1]
    assert snapshot(fast) == snapshot(ref)
    # Serialized without sorted keys, too: the two loops file
    # per-node DRAM counts in different orders.
    assert json.dumps(fast.to_json()) == json.dumps(ref.to_json())


@pytest.mark.parametrize("policy", [Policy.BUDDY, Policy.MEM_LLC])
def test_fig10_synthetic_fast_equals_reference(policy):
    fast = run_fig10(policy, fast=True)
    ref = run_fig10(policy, fast=False)
    assert fast == ref


def test_traced_path_matches_reference():
    """A recording observer must not perturb the simulation itself."""
    ref = run_fig11("lbm", Policy.MEM_LLC, fast=False)
    traced = run_fig11("lbm", Policy.MEM_LLC, fast=True, traced=True)
    assert traced == ref


# ----------------------------------------------------------- platform grid
PLATFORM_GRID = (
    "opteron_6128_scaled", "opteron_4s", "modern_8ch", "bigbank_4n",
    "disagg_2n",
)


def platform_engine(preset: str, policy: Policy, *, traced: bool = False):
    """A fresh engine on *preset* and its mini-profile lbm program."""
    from repro.experiments.configs import configs_for
    from repro.machine.presets import platform
    from repro.util.units import MIB

    machine = platform(preset, 256 * MIB)
    config = next(iter(configs_for(machine.topology).values()))
    observer = Observer() if traced else None
    kwargs = {"observer": observer} if observer is not None else {}
    team, engine = _fresh_environment(
        config, policy, machine, age_seed=0, **kwargs
    )
    spec = get_workload("lbm").scaled(profile_scale(PROFILE))
    program = build_spmd_program(spec, team, RngStream(0, "lbm", config.name))
    return engine, program


def run_platform(preset: str, policy: Policy, *, fast: bool,
                 traced: bool = False):
    engine, program = platform_engine(preset, policy, traced=traced)
    engine.fast_path = fast
    return snapshot(engine.run(program))


@pytest.mark.parametrize("preset", PLATFORM_GRID)
@pytest.mark.parametrize("policy", [Policy.BUDDY, Policy.MEM_LLC])
def test_platform_fast_equals_reference(preset, policy):
    """Bit identity holds on every preset of the platform family."""
    fast = run_platform(preset, policy, fast=True)
    ref = run_platform(preset, policy, fast=False)
    assert fast == ref


@pytest.mark.parametrize("preset", ["modern_8ch", "disagg_2n"])
def test_platform_traced_matches_reference(preset):
    """The traced path agrees with the reference loop off-Opteron too."""
    ref = run_platform(preset, Policy.MEM_LLC, fast=False)
    traced = run_platform(preset, Policy.MEM_LLC, fast=True, traced=True)
    assert traced == ref


def _check_plan_sets(engine, section) -> int:
    """Plan *section* and assert that each access's three set entries
    are the dicts ``Cache.set_of_line`` names for its line: the L1 and
    L2 of the thread's core and the shared LLC.  Returns the number of
    accesses checked."""
    hierarchy = engine.memory.hierarchy
    llc = hierarchy.llc
    plans = engine._batch_plan(section)
    assert plans is not None
    assert plans.keys() == {t for t, tr in section.traces.items() if len(tr)}
    checked = 0
    for tidx, plan in plans.items():
        core = engine.team.handles[tidx].core
        l1, l2 = hierarchy.l1[core], hierarchy.l2[core]
        lines, l1s, l2s, llcs = plan[:4]
        assert len(l1s) == len(l2s) == len(llcs) == len(lines)
        for line, s1, s2, s3 in zip(lines, l1s, l2s, llcs):
            assert s1 is l1._sets[l1.set_of_line(line)]
            assert s2 is l2._sets[l2.set_of_line(line)]
            assert s3 is llc._sets[llc.set_of_line(line)]
        checked += len(lines)
    return checked


@pytest.mark.parametrize("preset", PLATFORM_GRID)
def test_plan_pins_cache_sets(preset):
    """The plan hands the batched loop each access's set dicts, not
    their indices: after a run every section of the program (now all
    resident) and a one-access trace on the last thread's core plan to
    the very dicts the caches index."""
    import numpy as np

    from repro.sim.barrier import Section
    from repro.sim.trace import Trace

    engine, program = platform_engine(preset, Policy.BUDDY)
    engine.run(program)
    for section in program.sections:
        assert _check_plan_sets(engine, section) == section.accesses
    tidx = engine.team.nthreads - 1
    va = next(
        tr.vaddrs[:1] for s in program.sections
        for t, tr in s.traces.items() if t == tidx and len(tr)
    )
    one = Trace(vaddrs=np.asarray(va, dtype=np.int64),
                writes=np.zeros(1, dtype=bool), think_ns=1.0)
    assert _check_plan_sets(engine, Section("parallel", {tidx: one})) == 1


def _disagg_lbm():
    """A fresh disagg_2n engine (buddy) and its lbm program."""
    from repro.experiments.configs import configs_for
    from repro.machine.presets import platform
    from repro.util.units import MIB

    machine = platform("disagg_2n", 256 * MIB)
    config = next(iter(configs_for(machine.topology).values()))
    team, engine = _fresh_environment(
        config, Policy.BUDDY, machine, age_seed=0
    )
    spec = get_workload("lbm").scaled(profile_scale(PROFILE))
    program = build_spmd_program(
        spec, team, RngStream(0, "lbm", config.name)
    )
    return engine, program


def test_disagg_takes_batched_plan():
    """A disaggregated preset replays every resident section through the
    batched plan; the first-touch init section, the one that faults, is
    not planned and takes the reference loop."""
    engine, program = _disagg_lbm()
    planned: dict[str, bool] = {}
    batch_plan = engine._batch_plan

    def spy(section):
        plan = batch_plan(section)
        planned[section.label] = plan is not None
        return plan

    engine._batch_plan = spy
    metrics = engine.run(program)
    faulting = {s.label for s in metrics.sections if s.faults}
    assert faulting == {"parallel-init"}
    assert planned == {
        s.label: s.label not in faulting for s in program.sections
    }


def _kernel_ns_counts(snap: dict) -> dict[str, int]:
    """Sections recorded per ``engine.kernel_ns`` kind."""
    return {
        h["labels"]["kind"]: h["count"] for h in snap["histograms"]
        if h["name"] == "engine.kernel_ns"
    }


def _plan_fallbacks(snap: dict) -> dict[str, float]:
    """Sections counted per ``engine.plan_fallback`` reason."""
    return {
        c["labels"]["reason"]: c["value"] for c in snap["counters"]
        if c["name"] == "engine.plan_fallback"
    }


def test_disagg_records_one_fault_fallback():
    """engine.plan_fallback counts each unplannable section by reason; on
    disagg_2n only the first-touch init section is unplanned, counted
    once as ``reason=fault``."""
    from repro.obs import metrics as obs_metrics

    engine, program = _disagg_lbm()
    with obs_metrics.installed(obs_metrics.MetricsRegistry()) as reg:
        engine.run(program)
    assert _plan_fallbacks(reg.snapshot()) == {"fault": 1}


def test_disagg_faulting_sections_record_scalar_replay():
    """A section that faults takes the reference loop, recorded as
    ``scalar_replay``, so that stage holds every demand fault of the
    run; fully resident sections are ``replay``."""
    from repro.obs import metrics as obs_metrics

    engine, program = _disagg_lbm()
    with obs_metrics.installed(obs_metrics.MetricsRegistry()) as reg:
        metrics = engine.run(program)
    faulting = sum(1 for s in metrics.sections if s.faults)
    assert faulting == 1
    counts = _kernel_ns_counts(reg.snapshot())
    assert counts == {
        "decode": len(program.sections),
        "scalar_replay": faulting,
        "replay": len(program.sections) - faulting,
    }


def _tiny_disagg_builder(write_fraction: float, engines: list):
    """sanitize.diff builder: four threads on the tiny disaggregated
    machine (node 1 remote, 8192-line DRAM cache behind a 4096-line LLC)
    replaying a hot/cold mix over 2 MiB, so far-node reuse lands both
    inside and beyond the DRAM cache.  The traced leg runs under a
    ``cheap`` sanitizer; every engine built is appended to ``engines``."""
    import numpy as np

    from repro.sanitize import SanitizerObserver
    from repro.sanitize.fuzz import FUZZ_PRESETS
    from repro.sim.barrier import Program, Section
    from repro.sim.trace import Trace
    from repro.util.units import KIB, MIB

    def builder(observer):
        if observer.enabled:
            observer = SanitizerObserver.for_level("cheap", inner=observer)
        machine = FUZZ_PRESETS["tiny_disagg"](16 * MIB)
        kernel = Kernel(machine, aged=True, age_seed=0, observer=observer)
        team = ColoredTeam.create(
            TintMalloc(kernel=kernel), [0, 1, 2, 3], Policy.BUDDY
        )
        memory = MemorySystem.for_machine(machine, observer=observer)
        engine = Engine(team, memory, observer=observer)
        if observer.enabled:
            observer.sanitizer.attach_engine(engine)
        engines.append(engine)
        rng = np.random.default_rng(7)
        nlines, n = 512 * KIB // 64, 4000
        bases = [h.malloc(512 * KIB, label=f"r{t}")
                 for t, h in enumerate(team.handles)]
        init = {
            t: Trace(
                vaddrs=base + np.arange(nlines, dtype=np.int64) * 64,
                writes=rng.random(nlines) < write_fraction,
                think_ns=2.0, label="init",
            )
            for t, base in enumerate(bases)
        }
        sections = [Section(kind="parallel", traces=init, label="init")]
        # Two compute sections, so the second one starts from the
        # shared DRAM state the first left behind.
        for rnd in range(2):
            traces = {}
            for t, base in enumerate(bases):
                hot = rng.integers(0, nlines // 4, n)
                cold = rng.integers(0, nlines, n)
                idx = np.where(rng.random(n) < 0.5, hot, cold)
                traces[t] = Trace(
                    vaddrs=base + idx.astype(np.int64) * 64,
                    writes=rng.random(n) < write_fraction,
                    think_ns=2.0, label=f"compute[{rnd}]",
                )
            sections.append(
                Section(kind="parallel", traces=traces, label=f"compute[{rnd}]")
            )
        program = Program(sections=sections, nthreads=4, name="tiny-disagg")
        return engine, program

    return builder


def _dram_state(engine) -> tuple:
    """The DRAM system's mutable timing, bank counters, interconnect and
    DRAM-cache state."""
    dram = engine.memory.dram
    ic = dram.interconnect
    # One epoch representation whichever loop wrote it (== alone would
    # not tell an int epoch from a float one).
    assert all(type(e) is float for e in dram.bank_epoch)
    return (
        dram._ctrl_busy, dram._chan_busy, dram._net_busy,
        dram.bank_busy, dram.bank_row, dram.bank_epoch,
        dram.bank_hits, dram.bank_misses, dram.bank_conflicts,
        ic._link_busy, ic.remote_transfers,
        dict(dram.stats.per_node_accesses),
        {node: ([list(s) for s in cache._sets], cache.hits, cache.misses)
         for node, cache in enumerate(dram._remote_caches)
         if cache is not None},
    )


def test_mesh_fast_leaves_reference_dram_state(monkeypatch):
    """On the 4-node Opteron (buddy lbm) the fast loop leaves the
    reference loop's bank, link and per-node state behind, with row
    misses, hits and conflicts all taken across the mesh."""
    from repro.dram.system import DramSystem

    fast, _ = fig11_engine("lbm", Policy.BUDDY, fast=True)
    across: Counter = Counter()
    access = DramSystem.access

    def counting_access(dram, paddr, core, now, is_write=False):
        result = access(dram, paddr, core, now, is_write)
        if result.hops:
            across[result.row_kind.value] += 1
        return result

    monkeypatch.setattr(DramSystem, "access", counting_access)
    ref, _ = fig11_engine("lbm", Policy.BUDDY, fast=False)
    assert set(across) == {"miss", "hit", "conflict"}
    assert _dram_state(fast) == _dram_state(ref)
    assert fast.memory.dram.interconnect.remote_transfers > 0


@pytest.mark.parametrize("write_fraction", [0.7, 0.1],
                         ids=["write_heavy", "read_heavy"])
def test_remote_tier_batched_paths(write_fraction, monkeypatch):
    """fast == reference == traced (cheap sanitizer) on a small-cache
    disaggregated machine, with every remote-tier branch of the batched
    loop exercised: DRAM-cache hits, misses past capacity (LRU
    evictions), absorbed and link-queued write-backs, and row conflicts
    at the far node."""
    from repro.dram.remote import RemoteCache
    from repro.obs import metrics as obs_metrics
    from repro.sanitize.diff import differential_run
    from repro.sanitize.dram_check import DramChecker

    # DramSystem.writeback is the only caller of RemoteCache.touch; its
    # result splits the reference legs' write-backs into absorbed (True)
    # and link-queued (False).  The fast leg matches them bit for bit.
    touches = {True: 0, False: 0}
    touch = RemoteCache.touch

    def counting_touch(cache, line):
        hit = touch(cache, line)
        touches[hit] += 1
        return hit

    monkeypatch.setattr(RemoteCache, "touch", counting_touch)
    engines: list = []
    with obs_metrics.installed(obs_metrics.MetricsRegistry()) as reg:
        report = differential_run(
            _tiny_disagg_builder(write_fraction, engines)
        )
    assert report.modes == ("fast", "reference", "traced")
    assert report.clean, report.describe()
    # The fast leg replayed its faulting init section through the
    # reference loop and batched both compute sections.
    counts = _kernel_ns_counts(reg.snapshot())
    assert counts["replay"] == 2
    assert counts["scalar_replay"] == 1

    # Beyond the metrics: the fast leg leaves the same DRAM state behind
    # (occupancies, open rows, DRAM-cache contents in LRU order).
    fast, ref = engines[0], engines[1]
    assert _dram_state(fast) == _dram_state(ref)
    dram = fast.memory.dram
    DramChecker(dram).check()  # conservation of the shared state
    stats = dram.stats
    assert stats.remote_cache_hits > 0
    assert stats.remote_cache_misses > dram.remote.cache_lines
    assert stats.writebacks > 0
    assert touches[True] > 0 and touches[False] > 0
    far = dram.mapping.bank_colors_of_node(1)
    assert sum(dram.bank_conflicts[c] for c in far) > 0


def test_prefetch_ablation_falls_back_with_reason():
    """Prefetchers send every section to the reference loop
    (reason=prefetch), bit-identically."""
    from repro.obs import metrics as obs_metrics

    def run(fast: bool):
        machine = profile_machine(PROFILE)
        tm = TintMalloc(kernel=Kernel(machine))
        team = ColoredTeam.create(tm, list(CONFIGS[CONFIG].cores),
                                  Policy.BUDDY)
        memory = MemorySystem.for_machine(machine, prefetch=True)
        engine = Engine(team, memory, fast_path=fast)
        spec = get_workload("blackscholes").scaled(profile_scale(PROFILE))
        program = build_spmd_program(
            spec, team, RngStream(0, "blackscholes", CONFIG)
        )
        return snapshot(engine.run(program)), len(program.sections)

    with obs_metrics.installed(obs_metrics.MetricsRegistry()) as reg:
        fast, nsections = run(True)
    counters = [
        c for c in reg.snapshot()["counters"]
        if c["name"] == "engine.plan_fallback"
    ]
    assert [(c["labels"], c["value"]) for c in counters] == [
        ({"reason": "prefetch"}, nsections)
    ]
    assert fast == run(False)[0]


def _dispatched(engine, team) -> list[str]:
    """Which loop ``engine._run_section`` picks for one section."""
    seen = []
    engine._run_section_reference = lambda *a, **k: seen.append("ref") or {}
    engine._run_section_fast = lambda *a, **k: seen.append("fast") or {}
    engine._run_section(
        next(iter(build_spmd_program(
            get_workload("blackscholes").scaled(profile_scale(PROFILE)),
            team, RngStream(0, "blackscholes", CONFIG),
        ).sections)),
        0.0,
        RunMetrics(name="x", policy="buddy", nthreads=team.nthreads),
    )
    return seen


def test_fast_path_flag_dispatch():
    """fast_path=False must actually select the reference loop."""
    team, engine = _fresh_environment(
        CONFIGS[CONFIG], Policy.BUDDY, profile_machine(PROFILE), age_seed=0
    )
    assert engine.fast_path  # default on
    engine.fast_path = False
    assert _dispatched(engine, team) == ["ref"]


def test_enabled_observer_dispatches_to_reference():
    """An enabled observer selects the reference loop, which carries the
    tracing hooks, even with fast_path on."""
    team, engine = _fresh_environment(
        CONFIGS[CONFIG], Policy.BUDDY, profile_machine(PROFILE), age_seed=0,
        observer=Observer(),
    )
    assert engine.fast_path
    assert _dispatched(engine, team) == ["ref"]


# ------------------------------------------------------- inline demand faults
def _inline_fault_builder(engines: list):
    """sanitize.diff builder: four threads on the tiny machine whose
    sections demand-fault partway through.

    * ``race``: threads 0 and 1 first-touch the same 16 pages, every line
      of each in a shuffled order, so whichever reaches a page first
      faults it and the other finds it mapped.
    * ``huge``: threads 2 and 3 touch 8 pages of a 2 MiB huge-page
      mapping; the first access maps all of them with one fault.
    * ``warm-init`` then ``mixed``: every thread first-touches its own
      region, then a compute section mixes it (resident) with a shared
      region nobody has touched yet (unmapped).

    Every engine built is appended to ``engines``.
    """
    import numpy as np

    from repro.machine.presets import tiny_machine
    from repro.sim.barrier import Program, Section
    from repro.sim.trace import Trace
    from repro.util.units import KIB, MIB

    def trace(vaddrs, rng, label):
        # A fractional think time per trace, so a reassociated clock sum
        # rounds differently from the reference loop's.
        return Trace(
            vaddrs=np.asarray(vaddrs, dtype=np.int64),
            writes=rng.random(len(vaddrs)) < 0.5,
            think_ns=rng.random() * 3.0, label=label,
        )

    def builder(observer):
        machine = tiny_machine(16 * MIB)
        kernel = Kernel(machine, observer=observer)
        team = ColoredTeam.create(
            TintMalloc(kernel=kernel), [0, 1, 2, 3], Policy.MEM_LLC
        )
        memory = MemorySystem.for_machine(machine, observer=observer)
        engine = Engine(team, memory, observer=observer)
        engines.append(engine)
        rng = np.random.default_rng(11)
        lines = np.arange(4096 // 64, dtype=np.int64) * 64
        h0 = team.handles[0]
        shared = h0.malloc(64 * KIB, label="shared")
        huge = h0.malloc(2 * MIB, label="huge", huge=True)
        cold = h0.malloc(128 * KIB, label="cold")
        own = [h.malloc(128 * KIB, label=f"own{t}")
               for t, h in enumerate(team.handles)]
        race = {
            t: trace(
                np.concatenate([
                    shared + page * 4096 + rng.permutation(lines)
                    for page in range(16)
                ]), rng, "race",
            )
            for t in (0, 1)
        }
        huge_pages = huge + np.arange(8, dtype=np.int64) * 4096
        huge_traces = {
            t: trace(
                rng.choice(huge_pages, 300) + rng.choice(lines, 300), rng,
                "huge",
            )
            for t in (2, 3)
        }
        warm = {
            t: trace(base + np.arange(128 * KIB // 64) * 64, rng, "warm-init")
            for t, base in enumerate(own)
        }
        mixed = {}
        for t, base in enumerate(own):
            n = 2000
            hot = base + rng.integers(0, 128 * KIB // 64, n) * 64
            new = cold + rng.integers(0, 128 * KIB // 64, n) * 64
            mixed[t] = trace(
                np.where(rng.random(n) < 0.8, hot, new), rng, "mixed"
            )
        program = Program(
            sections=[
                Section(kind="parallel", traces=race, label="race"),
                Section(kind="parallel", traces=huge_traces, label="huge"),
                Section(kind="parallel", traces=warm, label="warm-init"),
                Section(kind="parallel", traces=mixed, label="mixed"),
            ],
            nthreads=4, name="inline-faults",
        )
        return engine, program

    return builder


def test_inline_faults_fast_equals_reference():
    """fast == reference == traced on sections that demand-fault
    partway through, and both untraced legs leave the same page table
    and first-toucher map behind."""
    from repro.sanitize.diff import differential_run

    engines: list = []
    report = differential_run(_inline_fault_builder(engines))
    assert report.modes == ("fast", "reference", "traced")
    assert report.clean, report.describe()
    fast, ref = engines[0].space, engines[1].space
    assert fast.page_table == ref.page_table
    assert fast.first_toucher == ref.first_toucher


def test_inline_fault_sections_take_the_reference_loop():
    """None of the crafted sections is planned: each touches an unmapped
    page, so each is counted as ``reason=fault`` and replays through the
    reference loop, faulting as the docstring of its builder says."""
    from repro.obs import metrics as obs_metrics
    from repro.obs.observer import NULL_OBSERVER

    engine, program = _inline_fault_builder([])(NULL_OBSERVER)
    with obs_metrics.installed(obs_metrics.MetricsRegistry()) as reg:
        metrics = engine.run(program)
    faults = {s.label: s.faults for s in metrics.sections}
    # race: one fault per shared page, the two threads sharing the
    # first touches between them.
    assert faults["race"] == 16
    space = engine.space
    race = program.sections[0].traces
    first = {space.first_toucher[v] for v in set(race[0].vaddrs >> 12)}
    assert first == {engine.team.handles[t].task.tid for t in race}
    # huge: one fault maps every page the section touches.
    assert faults["huge"] == 1
    assert faults["warm-init"] == 4 * 32
    assert 0 < faults["mixed"] <= 32
    snap = reg.snapshot()
    assert _kernel_ns_counts(snap) == {"decode": 4, "scalar_replay": 4}
    assert _plan_fallbacks(snap) == {"fault": 4}


def test_inline_fault_oom_matches_reference():
    """An out-of-memory fault partway through a section surfaces from the
    fast loop with the reference loop's type and message, after the same
    pages were faulted in."""
    import numpy as np

    from repro.kernel.kernel import OutOfMemory
    from repro.machine.presets import tiny_machine
    from repro.sim.barrier import Program, Section
    from repro.sim.trace import Trace
    from repro.util.units import MIB

    def run(fast: bool):
        machine = tiny_machine(1 * MIB)
        team = ColoredTeam.create(
            TintMalloc(kernel=Kernel(machine)), [0, 1], Policy.BUDDY
        )
        engine = Engine(team, MemorySystem.for_machine(machine),
                        fast_path=fast)
        # Two threads first-touch 2 MiB between them: twice the frames.
        base = team.handles[0].malloc(2 * MIB, label="big")
        traces = {
            t: Trace(
                vaddrs=base + t * MIB + np.arange(256, dtype=np.int64) * 4096,
                writes=np.ones(256, dtype=bool), think_ns=2.0,
            )
            for t in (0, 1)
        }
        program = Program(
            sections=[Section(kind="parallel", traces=traces, label="init")],
            nthreads=2, name="oom",
        )
        with pytest.raises(OutOfMemory) as err:
            engine.run(program)
        return type(err.value), str(err.value), dict(engine.space.page_table)

    fast, ref = run(True), run(False)
    assert fast == ref
    assert 0 < len(fast[2]) < 512


def test_burst_horizon_tie_matches_reference():
    """An access whose clock exactly equals the burst horizon runs inside
    the burst: the horizon ends a burst only when the clock passes it.
    fast == reference == traced, once where the access at the tie is a
    first touch (a faulting section, so both legs replay it through the
    reference loop) and once where it is resident (the batched loop).

    Integer think times and integer latencies make the tie exact.  Both
    threads start each section at the same clock, so thread 0's burst
    runs to the horizon ``start + BATCH_SLACK_NS``; its first access hits
    the L1, and its think time (one per trace, ``BATCH_SLACK_NS -
    l1_hit`` in every section) lands the clock on the horizon.  In
    ``tie`` its second access is the first touch of a fresh page.  In
    ``tie-resident`` it is a DRAM access that books the node's controller
    before thread 1's earlier-clocked one, which then queues behind it;
    ending the burst at the tie would book them the other way round.
    """
    import numpy as np

    from repro.cache.hierarchy import CacheTiming
    from repro.dram.timing import DramTiming
    from repro.machine.presets import tiny_machine
    from repro.obs import metrics as obs_metrics
    from repro.sanitize.diff import differential_run
    from repro.sim.barrier import Program, Section
    from repro.sim.trace import Trace
    from repro.util.units import MIB

    l1_hit = 1.0
    slack = Engine.BATCH_SLACK_NS
    observers: list = []

    def trace(vaddrs, think):
        return Trace(
            vaddrs=np.asarray(vaddrs, dtype=np.int64),
            writes=np.zeros(len(vaddrs), dtype=bool), think_ns=think,
        )

    def builder(observer):
        observers.append(observer)
        machine = tiny_machine(16 * MIB)
        team = ColoredTeam.create(
            TintMalloc(kernel=Kernel(machine, observer=observer)), [0, 1],
            Policy.BUDDY,
        )
        memory = MemorySystem.for_machine(
            machine,
            dram_timing=DramTiming(writeback_occupancy_scale=1.0),
            cache_timing=CacheTiming(l1_hit=l1_hit, l2_hit=4.0, llc_hit=14.0),
            observer=observer,
        )
        engine = Engine(team, memory, observer=observer)
        base = team.handles[0].malloc(2 * 4096, label="pair")
        other = team.handles[1].malloc(4096, label="other")
        fresh = base + 4096  # the page after base's: untouched until "tie"
        think0 = slack - l1_hit
        warm = {0: trace([base], think0), 1: trace([other], 1)}
        tie = {
            0: trace([base, fresh, fresh + 64], think0),
            1: trace([other, other + 64], 1),
        }
        # Every page resident; the lines at +128 are in no cache yet.
        resident = {
            0: trace([base, fresh + 128], think0),
            1: trace([other + 128], 1),
        }
        program = Program(
            sections=[
                Section(kind="parallel", traces=warm, label="warm"),
                Section(kind="parallel", traces=tie, label="tie"),
                Section(kind="parallel", traces=resident,
                        label="tie-resident"),
            ],
            nthreads=2, name="horizon-tie",
        )
        return engine, program

    with obs_metrics.installed(obs_metrics.MetricsRegistry()) as reg:
        report = differential_run(builder)
    assert report.modes == ("fast", "reference", "traced")
    assert report.clean, report.describe()
    # Only the fast leg plans: the two faulting sections fall back, the
    # resident one is batched.
    snap = reg.snapshot()
    assert _plan_fallbacks(snap) == {"fault": 2}
    assert _kernel_ns_counts(snap) == {
        "decode": 3, "scalar_replay": 2, "replay": 1,
    }

    # The ties really occur.  In the traced leg, thread 0 took the fresh
    # page's fault at exactly the horizon of its first "tie" burst ...
    traced = observers[2]
    starts = {
        e.name: e.begin for e in traced.events
        if e.track == "engine" and e.name in ("tie", "tie-resident")
    }
    assert starts["tie"] == int(starts["tie"])
    faults = [
        e.begin for e in traced.events
        if e.name == "fault" and e.tid == 0 and e.begin >= starts["tie"]
    ]
    assert faults == [starts["tie"] + slack]
    # ... and in "tie-resident" its DRAM access at the horizon was served
    # first, so thread 1's access, issued 60 ns earlier, queued behind it.
    start = starts["tie-resident"]
    dram = {
        e.args["core"]: (e.begin, e.args["queue_wait"])
        for e in traced.events
        if e.name == "dram.access" and e.begin >= start
    }
    assert dram[0] == (start + slack, 0.0)
    assert dram[1][0] == start and dram[1][1] > 0.0
