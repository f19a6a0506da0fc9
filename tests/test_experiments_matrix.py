"""The platform matrix's fast == reference gate (`check_equivalence`)."""

from __future__ import annotations

import pytest

from repro.experiments.matrix import check_equivalence
from repro.machine.presets import tiny_machine
from repro.sim.engine import Engine
from repro.util.units import MIB

SCALE = 0.02


@pytest.fixture(scope="module")
def tiny():
    return tiny_machine(64 * MIB)


def test_gate_passes_on_a_tiny_preset(tiny):
    check_equivalence(tiny, "lbm", SCALE)


def test_gate_names_platform_and_first_divergent_field(tiny, monkeypatch):
    """A fast loop that ends every thread 1 ns late fails the gate, and
    the error says where."""
    batched = Engine._run_section_batched

    def late(self, *args):
        return {t: end + 1.0 for t, end in batched(self, *args).items()}

    monkeypatch.setattr(Engine, "_run_section_batched", late)
    with pytest.raises(AssertionError,
                       match=r"failed on platform tiny \(lbm\) at runtime:"):
        check_equivalence(tiny, "lbm", SCALE)


def test_gate_fails_on_an_analytic_violation(tiny, monkeypatch):
    """Both loops miscounting barriers the same way agree with each other
    but break an analytic identity, which fails the gate too."""
    run = Engine.run

    def miscount(self, program):
        metrics = run(self, program)
        metrics.barriers += 1
        return metrics

    monkeypatch.setattr(Engine, "run", miscount)
    with pytest.raises(AssertionError, match=r"failed on platform tiny "
                       r"\(lbm\) on an analytic identity:\n  analytic: barriers"):
        check_equivalence(tiny, "lbm", SCALE)
