"""CI smoke: the dashboard must render a real ``--metrics-out`` file.

Runs a tiny ``python -m repro.experiments`` sweep (mini profile, one
config, one rep) with ``--metrics-out``, then ``python -m repro.obs top
PATH`` on the snapshot it wrote, each as a subprocess with a hard
timeout, and asserts the frame carries real numbers (every sweep job
completed, attempt-latency quantiles, the final queue state).  All
outputs go to a temporary directory.

Usage::

    PYTHONPATH=src python tools/dashboard_smoke.py
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.alloc.policies import Policy  # noqa: E402
from repro.workloads.registry import BENCH_ORDER  # noqa: E402

#: One rep of every (bench, policy) pair on one config.
JOBS = len(BENCH_ORDER) * len(Policy)
SMOKE_TIMEOUT_S = 300


def run(cmd: list[str], env: dict) -> subprocess.CompletedProcess:
    print(f"$ {' '.join(cmd)}")
    return subprocess.run(cmd, capture_output=True, text=True, env=env,
                          cwd=REPO_ROOT, timeout=SMOKE_TIMEOUT_S)


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="dashboard_smoke_") as out:
        return smoke(Path(out))


def smoke(out: Path) -> int:
    metrics = out / "metrics.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")

    sweep = run([sys.executable, "-m", "repro.experiments",
                 "--profile", "mini", "--reps", "1",
                 "--configs", "4_threads_4_nodes", "--out", str(out),
                 "--metrics-out", str(metrics)], env)
    if sweep.returncode != 0:
        print(f"FAIL: experiments exited {sweep.returncode}: "
              f"{sweep.stderr[-2000:]}")
        return 1

    top = run([sys.executable, "-m", "repro.obs", "top", str(metrics)], env)
    print(top.stdout)
    if top.returncode != 0:
        print(f"FAIL: top exited {top.returncode}: {top.stderr}")
        return 1
    for needle in (f"completed={JOBS}", "attempt", "p99=", "queue depth"):
        if needle not in top.stdout:
            print(f"FAIL: dashboard frame missing {needle!r}")
            return 1
    print("dashboard smoke ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
