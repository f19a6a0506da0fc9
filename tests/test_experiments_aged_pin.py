"""Pinned aged runs and the per-profile machine they boot on.

The golden metrics hold no aged run, yet every ``tune`` search boots
aged kernels: each node's free memory shuffled into order-0 frames, so
every colored fault refills from the order-0 heads.  This module pins
the full RunMetrics digest of a mini run under an aged
:class:`~repro.alloc.custom.CustomPolicy` whose threads color by bank
and LLC, bank only, LLC only, and not at all, and checks that runs on
the shared per-profile machine equal a run on a freshly built one.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.alloc.custom import CustomPolicy
from repro.alloc.planner import ColorAssignment, plan_colors
from repro.alloc.policies import Policy
from repro.experiments.configs import CONFIGS
from repro.experiments.runner import PROFILES, profile_machine, run_benchmark
from repro.sanitize.diff import metrics_snapshot
from repro.sim.engine import Engine

CONFIG = "4_threads_4_nodes"
PROFILE = "mini"

#: sha256 of the canonical RunMetrics snapshot of each pinned run,
#: recorded before the kernel's one-pass order-0 refill and shared
#: per-profile machine, and unchanged by them.
PINNED = {
    "art": "2d36e522852dbff4360fcf25e9e0b7659ccf75860aac924cbe098461a43c4818",
    "lbm": "6e3cf5c76060a921c07d6bbaf5f0ac7de7cc81d005c322cdd912bc67a6ad71d0",
}


def aged_policy() -> CustomPolicy:
    """Aged, with mem+LLC, mem-only, LLC-only and uncolored threads."""
    machine = profile_machine(PROFILE)
    both = plan_colors(Policy.MEM_LLC, list(CONFIGS[CONFIG].cores),
                       machine.mapping, machine.topology)
    return CustomPolicy(name="aged-pin", aged=True, assignments=(
        both[0],
        ColorAssignment(mem_colors=both[1].mem_colors),
        ColorAssignment(llc_colors=both[2].llc_colors),
        ColorAssignment(),
    ))


def run_digest(monkeypatch, bench: str, **kwargs) -> str:
    """Digest of the RunMetrics one mini ``run_benchmark`` produces."""
    captured = []
    real_run = Engine.run

    def capture(self, program):
        metrics = real_run(self, program)
        captured.append(metrics)
        return metrics

    monkeypatch.setattr(Engine, "run", capture)
    run_benchmark(bench, aged_policy(), CONFIG, rep=0, profile=PROFILE,
                  **kwargs)
    monkeypatch.undo()
    (metrics,) = captured
    blob = json.dumps(metrics_snapshot(metrics), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("bench", sorted(PINNED))
def test_aged_custom_run_matches_pin(monkeypatch, bench):
    assert run_digest(monkeypatch, bench) == PINNED[bench]


def test_profile_machine_is_shared():
    assert profile_machine(PROFILE) is profile_machine(PROFILE)


def test_shared_machine_runs_equal_a_fresh_machine(monkeypatch):
    factory, memory, _ = PROFILES[PROFILE]
    fresh = run_digest(monkeypatch, "lbm", machine=factory(memory))
    first = run_digest(monkeypatch, "lbm")
    second = run_digest(monkeypatch, "lbm")
    assert first == second == fresh
