"""No public ``src/`` code that only tests reach, enforced in tier 1.

``tools/check_orphans.py`` is also a step of the CI docs job; running it
here means a new orphan (or a stale allowlist entry) fails fast, locally.
"""

import shutil
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
CALLER_DIRS = ("src", "examples", "tools", "benchmarks", "perfbench")


def _check(root: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "tools" / "check_orphans.py")],
        capture_output=True,
        text=True,
    )


def test_no_orphans_in_the_tree():
    proc = _check(REPO_ROOT)
    assert proc.returncode == 0, f"orphaned public code:\n{proc.stdout}"


def test_planted_orphan_and_stale_entry_are_reported(tmp_path):
    keep_py = shutil.ignore_patterns("__pycache__", "out", "*.pyc", "*.json")
    for top in CALLER_DIRS:
        shutil.copytree(REPO_ROOT / top, tmp_path / top, ignore=keep_py)
    units = tmp_path / "src" / "repro" / "util" / "units.py"
    units.write_text(
        units.read_text() + '\n\ndef planted_orphan() -> int:\n    return 0\n'
        # A forwarding wrapper: its own body's use of the name is no use.
        '\n\ndef planted_wrapper(x):\n    return x.planted_wrapper()\n'
    )
    # A caller for an allowlisted orphan makes its entry stale.
    (tmp_path / "examples" / "planted_caller.py").write_text(
        "from repro.faultline.hooks import disarm\n\ndisarm()\n"
    )
    proc = _check(tmp_path)
    assert proc.returncode == 1
    assert "function repro.util.units.planted_orphan" in proc.stdout
    assert "function repro.util.units.planted_wrapper" in proc.stdout
    assert "ALLOWED entry repro.faultline.hooks.disarm is not an orphan" in (
        proc.stdout
    )
