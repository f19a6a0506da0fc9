"""Unit + integration tests for the experiment harness and figure builders."""

import gc
import weakref

import pytest

from repro.alloc.policies import Policy
from repro.core.session import ColoredTeam
from repro.core.tintmalloc import TintMalloc
from repro.dram.system import DramSystem
from repro.experiments.configs import CONFIG_ORDER, CONFIGS
from repro.experiments.figures import (
    best_other_policy,
    fig10,
    fig11,
    fig12,
    fig13,
    fig14,
    _index,
)
from repro.experiments.report import Claim, claims_table, records_to_csv
from repro.experiments.runner import (
    PROFILES,
    RunRecord,
    run_benchmark,
    run_synthetic,
    sweep,
)
from repro.kernel.kernel import Kernel
from repro.kernel.vm import AddressSpace
from repro.machine.presets import opteron_6128, tiny_machine


class TestConfigs:
    def test_all_five_present(self):
        assert set(CONFIG_ORDER) == set(CONFIGS)
        assert len(CONFIGS) == 5

    def test_paper_pinnings(self):
        assert CONFIGS["8_threads_4_nodes"].cores == (0, 1, 4, 5, 8, 9, 12, 13)
        assert CONFIGS["4_threads_4_nodes"].cores == (0, 4, 8, 12)
        assert CONFIGS["4_threads_1_nodes"].cores == (0, 1, 2, 3)

    def test_nodes_used(self):
        topo = opteron_6128().topology
        assert CONFIGS["16_threads_4_nodes"].nodes_used(topo) == (0, 1, 2, 3)
        assert CONFIGS["8_threads_2_nodes"].nodes_used(topo) == (0, 1)
        assert CONFIGS["4_threads_1_nodes"].nodes_used(topo) == (0,)


def fake_record(bench="lbm", policy="buddy", config="16_threads_4_nodes",
                rep=0, runtime=100.0, idle=10.0, threads=4):
    per = runtime / threads
    return RunRecord(
        bench=bench, policy=policy, config=config, rep=rep,
        runtime=runtime, parallel_runtime=runtime * 0.9,
        serial_runtime=runtime * 0.1, total_idle=idle,
        thread_runtimes=tuple(per * (1 + 0.1 * i) for i in range(threads)),
        thread_idles=tuple(idle / threads for _ in range(threads)),
        remote_fraction=0.1, row_hit_rate=0.5, row_conflicts=10,
        llc_miss_rate=0.5, dram_accesses=1000, faults=10,
    )


class TestFigureBuilders:
    def records(self):
        out = []
        for policy, rt in (
            ("buddy", 100.0), ("bpm", 130.0), ("mem+llc", 70.0),
            ("mem", 80.0), ("llc", 85.0), ("mem+llc(part)", 75.0),
            ("llc+mem(part)", 90.0),
        ):
            for rep in range(2):
                out.append(fake_record(policy=policy, runtime=rt + rep,
                                       idle=rt / 10, rep=rep))
        return out

    def test_fig11_normalization(self):
        fig = fig11(self.records())
        data = fig.data["16_threads_4_nodes"]["lbm"]
        assert data["buddy"].mean == pytest.approx(1.0, rel=0.01)
        assert data["mem+llc"].mean == pytest.approx(0.7, rel=0.02)
        assert data["bpm"].mean > 1.0

    def test_best_other_chosen_by_runtime(self):
        idx = _index(self.records())
        best = best_other_policy(idx, "lbm", "16_threads_4_nodes")
        assert best == "mem+llc(part)"  # 75 beats mem 80, llc 85, part 90

    def test_fig12_uses_idle(self):
        fig = fig12(self.records())
        data = fig.data["16_threads_4_nodes"]["lbm"]
        assert data["mem+llc"].mean == pytest.approx(0.7, rel=0.05)

    def test_fig13_per_thread_shape(self):
        fig = fig13(self.records(), "16_threads_4_nodes")
        rows = fig.data["lbm"]
        assert len(rows["buddy"]) == 4
        assert "mem+llc" in rows
        assert fig.spread("lbm", "buddy") > 0
        assert "t0" in fig.render("lbm")

    def test_fig14_idle_rows(self):
        fig = fig14(self.records(), "16_threads_4_nodes")
        rows = fig.data["lbm"]
        # Flat synthetic idles -> zero spread.
        assert fig.spread("lbm", "buddy") == pytest.approx(0.0)

    def test_per_thread_figure_with_gaps(self):
        """A bench without a buddy run is left out, an all-zero buddy
        baseline normalizes by 1, and a policy without runs has no row."""
        records = [
            fake_record(policy="buddy", idle=0.0),
            fake_record(policy="mem+llc", idle=8.0),
            fake_record(bench="art", policy="mem+llc"),
        ]
        fig = fig14(records, "16_threads_4_nodes")
        assert set(fig.data) == {"lbm"}
        assert set(fig.data["lbm"]) == {"buddy", "mem+llc"}  # no bpm row
        assert fig.max_value("lbm", "mem+llc") == pytest.approx(2.0)

    def test_fig10_requires_buddy(self):
        with pytest.raises(ValueError):
            fig10([fake_record(policy="mem")])

    def test_fig10_reduction(self):
        records = [
            fake_record(bench="synthetic", policy=p, runtime=rt)
            for p, rt in (("buddy", 100.0), ("llc", 95.0),
                          ("mem", 90.0), ("mem+llc", 83.0))
        ]
        f = fig10(records)
        assert f.reduction_vs_buddy() == pytest.approx(0.17, abs=0.01)
        assert "Fig. 10" in f.render()


class TestReport:
    def test_csv_roundtrip(self):
        csv_text = records_to_csv([fake_record()])
        assert "bench,policy" in csv_text.splitlines()[0]
        assert "lbm,buddy" in csv_text

    def test_claims_table(self):
        t = claims_table([
            Claim("lbm-runtime", paper=0.70, measured=0.75, holds=True),
            Claim("x", paper=1.0, measured=2.0, holds=False, note="off"),
        ])
        assert "| lbm-runtime | 0.700 | 0.750 | yes |" in t
        assert "| NO | off |" in t


class TestRunLifetime:
    """A finished run is freed by refcount, not left to the cyclic GC
    (whose timing then decided how many old kernels a sweep kept alive)."""

    def test_run_leaves_no_cyclic_garbage(self):
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            run_benchmark("lbm", Policy.MEM_LLC, "4_threads_4_nodes",
                          profile="mini")
            gc.collect()
            cyclic = [o for o in gc.garbage if isinstance(
                o, (Kernel, TintMalloc, AddressSpace, DramSystem)
            )]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            if enabled:
                gc.enable()
        assert cyclic == []

    def test_fault_handler_works_while_team_alive(self):
        tm = TintMalloc(tiny_machine())
        team = ColoredTeam.create(tm, [0, 2], Policy.MEM)
        space = tm.process.address_space
        task = team.handles[1].task
        pfn = space.fault_handler(task, 0, 0)
        assert tm.kernel.pool.owner[pfn] == task.tid
        assert tm.kernel.pool.node_of_frame(pfn) == 1
        # The handler does not keep the kernel alive on its own.
        kernel = weakref.ref(tm.kernel)
        enabled = gc.isenabled()
        gc.disable()
        try:
            del tm, team, task
            assert kernel() is None
        finally:
            if enabled:
                gc.enable()
        with pytest.raises(RuntimeError, match="kernel is gone"):
            space.fault_handler(None, 1, 0)


class TestRunnerIntegration:
    """End-to-end runs on the mini profile (fast, shape-agnostic)."""

    def test_run_benchmark_record_sane(self):
        r = run_benchmark("lbm", Policy.MEM_LLC, "4_threads_4_nodes",
                          profile="mini")
        assert r.runtime > 0
        assert len(r.thread_runtimes) == 4
        assert r.faults > 0
        assert 0 <= r.remote_fraction <= 1

    def test_trace_seed_independent_of_policy(self):
        a = run_benchmark("art", Policy.BUDDY, "4_threads_4_nodes",
                          profile="mini", seed=7)
        b = run_benchmark("art", Policy.MEM, "4_threads_4_nodes",
                          profile="mini", seed=7)
        # Same workload: same access counts, different placement/timing.
        assert a.faults == b.faults
        assert a.runtime != b.runtime

    def test_reps_differ(self):
        a = run_benchmark("equake", Policy.BUDDY, "4_threads_4_nodes",
                          profile="mini", rep=0)
        b = run_benchmark("equake", Policy.BUDDY, "4_threads_4_nodes",
                          profile="mini", rep=1)
        assert a.runtime != b.runtime

    def test_run_synthetic(self):
        r = run_synthetic(Policy.MEM_LLC, "4_threads_4_nodes", profile="mini")
        assert r.bench == "synthetic"
        assert r.runtime > 0

    def test_sweep_sequential(self):
        records = sweep(
            ["lbm"], [Policy.BUDDY, Policy.MEM_LLC], ["4_threads_1_nodes"],
            reps=1, profile="mini", parallel=False,
        )
        assert len(records) == 2
        assert {r.policy for r in records} == {"buddy", "mem+llc"}

    def test_profiles_registered(self):
        assert {"full", "scaled", "mini"} <= set(PROFILES)
