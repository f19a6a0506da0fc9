"""The platform matrix: its fast == reference gate (`check_equivalence`)
and its artefacts, pinned byte for byte on the tiny platform."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments.__main__ import main as experiments_main
from repro.experiments.matrix import MatrixCell, check_equivalence, render_markdown
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


GOLDEN = Path(__file__).parent / "golden"


def test_matrix_artefacts_are_pinned(tmp_path, capsys, update_golden):
    """``repro.experiments matrix`` on the tiny platform (lbm, one rep,
    scale 0.02):
    the gate, the policy sweep, the tuned and inversion summaries, and
    the rendered markdown and CSV, compared byte for byte."""
    assert experiments_main([
        "matrix", "--platforms", "tiny", "--benches", "lbm", "--reps", "1",
        "--scale", str(SCALE), "--memory-mib", "64", "--out", str(tmp_path),
    ]) == 0
    out = capsys.readouterr().out
    assert "[tiny] fast == reference: bit-identical" in out
    for name in ("matrix.md", "matrix.csv"):
        got = (tmp_path / name).read_bytes()
        golden = GOLDEN / f"matrix_tiny{Path(name).suffix}"
        if update_golden:
            golden.write_bytes(got)
        assert got == golden.read_bytes(), f"{name} drifted from {golden}"


def test_markdown_without_inversions():
    cells = [
        MatrixCell("p", "lbm", "buddy", 100.0, 0.0, 0.1, 0.0, 10.0, False),
        MatrixCell("p", "lbm", "mem+llc", 90.0, 10.0, 0.1, 0.0, 9.0, False),
    ]
    text = render_markdown(cells)
    assert "- `p` / `lbm`: **mem+llc** (+10.0% vs buddy)" in text
    assert text.endswith("No inversions in this grid.")
