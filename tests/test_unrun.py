"""``tools/unrun.py``: the never-run line audit's tracer and report.

The full audit (tier-1 plus three perfbench workloads) takes minutes and
is not part of tier-1; these tests pin its parts on small inputs.
"""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load():
    spec = importlib.util.spec_from_file_location(
        "unrun", REPO_ROOT / "tools" / "unrun.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_regions_are_consecutive_unrun_lines_of_one_function():
    unrun = _load()
    owners = {"m.py": {10: "repro.m.f", 11: "repro.m.f", 12: "repro.m.f",
                       14: "repro.m.g", 15: "repro.m.h"}}
    regions = unrun.never_run({"m.py": {11}}, owners)
    assert regions == [("m.py", 10, "repro.m.f", 1), ("m.py", 12, "repro.m.f", 1),
                       ("m.py", 14, "repro.m.g", 1), ("m.py", 15, "repro.m.h", 1)]


def test_record_traces_the_command_in_process(tmp_path):
    """``--record`` runs a script under the tracer and saves the
    ``src/repro`` lines it executed."""
    script = tmp_path / "probe.py"
    script.write_text(
        "from repro.util.units import format_size\nformat_size(5)\n"
    )
    out = tmp_path / "probe.json"
    subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / "unrun.py"),
         "--record", str(out), "--", str(script)],
        check=True, capture_output=True, timeout=120,
    )
    doc = json.loads(out.read_text())
    assert doc["status"] == 0
    source = (REPO_ROOT / "src/repro/util/units.py").read_text().splitlines()
    ran = {source[n - 1].strip() for n in doc["lines"]["src/repro/util/units.py"]}
    assert 'return f"{int(nbytes)}B"' in ran
    assert 'return f"{value:.1f}TiB"' not in ran


def test_keep_entries_hide_their_function_and_pin_its_count(capsys, monkeypatch):
    """A ``KEEP`` entry hides exactly its pinned number of never-run
    lines: fewer (a stale entry) or more (a new dead branch) fails."""
    unrun = _load()
    owners = unrun.body_lines()
    monkeypatch.setattr(unrun, "body_lines", lambda: owners)
    everything = {path: set(lines) for path, lines in owners.items()}
    path = "src/repro/util/units.py"
    lines = sorted(ln for ln, dotted in owners[path].items()
                   if dotted == "repro.util.units.format_size")
    everything[path].discard(lines[-1])
    monkeypatch.setattr(unrun, "KEEP", {})
    assert unrun.report(everything) == 1
    assert "repro.util.units.format_size (1 line)" in capsys.readouterr().out
    monkeypatch.setattr(unrun, "KEEP", {"repro.util.units.format_size": (1, "r")})
    assert unrun.report(everything) == 0
    capsys.readouterr()
    everything[path].discard(lines[0])
    assert unrun.report(everything) == 1
    assert ("KEEP entry repro.util.units.format_size expects 1 never-run "
            "line(s), has 2") in capsys.readouterr().out
    everything[path] |= set(lines)
    assert unrun.report(everything) == 1
    assert ("KEEP entry repro.util.units.format_size expects 1 never-run "
            "line(s), has 0") in capsys.readouterr().out
