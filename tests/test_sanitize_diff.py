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


class TestDifferentialRun:
    def test_paths_agree_on_healthy_engine(self):
        report = differential_run(_builder_factory())
        assert report.modes == ("fast", "reference", "traced")
        assert report.clean, report.describe()
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
