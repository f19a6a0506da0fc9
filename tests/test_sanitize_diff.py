"""Differential oracle tests: agreement, injected drift, analytic model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.alloc.policies import Policy
from repro.core.session import ColoredTeam
from repro.core.tintmalloc import TintMalloc
from repro.kernel.kernel import Kernel
from repro.machine.presets import tiny_machine
from repro.sanitize import SanitizeViolation
from repro.sanitize.diff import (
    DiffReport,
    FieldDiff,
    analytic_violations,
    diff_trees,
    differential_run,
    flatten_tree,
    metrics_snapshot,
)
from repro.sim.barrier import Program, Section
from repro.sim.engine import Engine, MemorySystem
from repro.sim.trace import Trace
from repro.util.units import KIB, MIB


def _builder_factory(extra_accesses_for_call=()):
    """A fresh tiny environment per call; selected calls get a longer
    trace (simulating one engine path drifting from the others)."""
    calls = {"n": 0}

    def builder(observer):
        call = calls["n"]
        calls["n"] += 1
        machine = tiny_machine(8 * MIB)
        kwargs = {"observer": observer}
        kernel = Kernel(machine, aged=True, age_seed=3, **kwargs)
        tm = TintMalloc(kernel=kernel)
        team = ColoredTeam.create(tm, [0], Policy.MEM_LLC)
        memory = MemorySystem.for_machine(machine, **kwargs)
        engine = Engine(team, memory, **kwargs)
        va = team.handles[0].malloc(16 * KIB, label="region")
        n = 256 + (64 if call in extra_accesses_for_call else 0)
        vaddrs = va + (np.arange(n, dtype=np.int64) % 256) * 64
        trace = Trace(vaddrs=vaddrs, writes=np.zeros(n, dtype=bool),
                      think_ns=2.0, label="t")
        program = Program(
            sections=[Section(kind="parallel", traces={0: trace}, label="c")],
            nthreads=1, name="diff-test",
        )
        return engine, program

    return builder


class TestFlattenAndDiff:
    def test_flatten_tree_paths(self):
        flat = flatten_tree({"a": {"b": 1}, "c": [2, {"d": 3}]})
        assert flat == {"a.b": 1, "c[0]": 2, "c[1].d": 3}

    def test_diff_trees_finds_first_divergence(self):
        snaps = {
            "fast": {"x": 1, "y": {"z": 2}},
            "reference": {"x": 1, "y": {"z": 3}},
        }
        first, divergent, total = diff_trees(snaps)
        assert total == 1
        assert first.path == "y.z"
        assert first.values == {"fast": 2, "reference": 3}

    def test_diff_trees_missing_leaf(self):
        snaps = {"fast": {"x": 1, "extra": 9}, "reference": {"x": 1}}
        first, _, total = diff_trees(snaps)
        assert total == 1
        assert first.values["reference"] == "<missing>"

    def test_report_raise_on_divergence(self):
        report = DiffReport(
            modes=("fast", "reference"), equal=False,
            first=FieldDiff("dram.accesses", {"fast": 1, "reference": 2}),
            total_divergent=1,
        )
        with pytest.raises(SanitizeViolation) as exc:
            report.raise_on_divergence()
        assert exc.value.layer == "diff"
        assert exc.value.invariant == "engine-divergence"
        assert "dram.accesses" in str(exc.value)


    def test_report_raises_on_an_analytic_violation(self):
        report = DiffReport(modes=("fast", "reference"), equal=True,
                            first=None, analytic=["barriers 2 != 1"])
        with pytest.raises(SanitizeViolation) as exc:
            report.raise_on_divergence()
        assert exc.value.invariant == "analytic-violation"
        assert "barriers 2 != 1" in str(exc.value)


class TestDifferentialRun:
    def test_paths_agree_on_healthy_engine(self):
        report = differential_run(_builder_factory())
        assert report.modes == ("fast", "reference", "traced")
        assert report.clean, report.describe()
        assert report.describe() == (
            "paths ('fast', 'reference', 'traced') agree; "
            "analytic model satisfied"
        )
        report.raise_on_divergence()  # no-op when clean

    def test_injected_fast_path_drift_is_caught(self):
        # Call 0 is the fast path: give it 64 extra accesses, as if the
        # batched loop replayed work the reference loop does not see.
        report = differential_run(_builder_factory(extra_accesses_for_call={0}))
        assert not report.equal
        assert report.total_divergent > 0
        assert report.first is not None
        with pytest.raises(SanitizeViolation):
            report.raise_on_divergence()


class TestAnalyticModel:
    def _metrics(self):
        builder = _builder_factory()
        engine, program = builder(__import__(
            "repro.obs.observer", fromlist=["NULL_OBSERVER"]
        ).NULL_OBSERVER)
        return engine.run(program)

    def test_healthy_run_satisfies_model(self):
        assert analytic_violations(self._metrics()) == []

    def test_drifted_dram_counter_violates_model(self):
        metrics = self._metrics()
        metrics.dram.accesses += 1
        violations = analytic_violations(metrics)
        assert violations
        assert any("accesses" in v for v in violations)

    def test_barrier_miscount_violates_model(self):
        metrics = self._metrics()
        metrics.barriers += 1
        assert any("barriers" in v for v in analytic_violations(metrics))

    def test_snapshot_is_json_like(self):
        snap = metrics_snapshot(self._metrics())
        flat = flatten_tree(snap)
        assert "runtime" in flat
        assert any(path.startswith("dram.") for path in flat)


def _bump(obj, name, delta=1):
    setattr(obj, name, getattr(obj, name) + delta)


def _reverse_first_section(m):
    m.sections[0].end = m.sections[0].start - 1.0


#: analytic_violations message -> one drift of a healthy run's metrics.
IDENTITIES = {
    "runtime": lambda m: _bump(m, "runtime", 10.0),
    "total_idle != sum of section idle": lambda m: _bump(
        m.threads[0], "idle_time", 10.0),
    "ends before it starts": _reverse_first_section,
    "thread faults != section faults": lambda m: _bump(m.sections[0], "faults"),
    "row hits+misses+conflicts": lambda m: _bump(m.dram, "row_hits"),
    "local + remote != DRAM accesses": lambda m: _bump(m.dram, "local_accesses"),
    "per-node accesses do not sum": lambda m: m.dram.per_node_accesses
    .__setitem__(0, m.dram.per_node_accesses.get(0, 0) + 1),
    "queue-wait components": lambda m: _bump(m.dram, "wait_ctrl", 1000.0),
    "thread DRAM accesses": lambda m: _bump(m.threads[0], "dram_accesses"),
    "thread remote accesses": lambda m: _bump(m.threads[0], "remote_accesses"),
    "thread row conflicts": lambda m: _bump(m.threads[0], "row_conflicts"),
    "thread accesses != L1 lookups": lambda m: _bump(m.threads[0], "accesses"),
    "L1 misses != L2 lookups": lambda m: _bump(m.cache["l1"], "misses"),
    "L2 misses != LLC lookups": lambda m: _bump(m.cache["l2"], "misses"),
    "LLC misses != DRAM accesses": lambda m: _bump(m.cache["llc"], "misses"),
}


@pytest.mark.parametrize("identity", sorted(IDENTITIES))
def test_each_analytic_identity_is_checked(identity):
    metrics = TestAnalyticModel()._metrics()
    IDENTITIES[identity](metrics)
    violations = analytic_violations(metrics)
    assert any(identity in v for v in violations), violations
