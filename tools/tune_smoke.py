"""Budgeted CI smoke for the policy-search subsystem.

Drives the real ``python -m repro.experiments tune`` CLI end to end,
one subprocess per leg (subprocesses keep the faultline arming and
ambient metrics of each leg isolated):

1. ``grid`` driver, serial (inline) executor, with a worker-kill
   FaultPlan armed — the driver must absorb the injected crashes via
   the scheduler's retries and still produce a front that dominates or
   matches the paper's ``mem+llc`` baseline.
2. ``evolution`` driver on the ``process`` executor (one forked child
   per attempt), sharing the same result cache.
3. The same evolution search re-run against the warm cache — the log
   document must be byte-identical and >= 95 % of jobs cache hits.

Artifacts land in ``--out`` (default ``benchmarks/out/tune_smoke``):
the search logs/reports plus a ``BENCH_search.json`` trajectory with
one entry per leg.  Exit code 0 only if every check passes.

Usage::

    PYTHONPATH=src python tools/tune_smoke.py [--budget 10] [--out DIR]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Recoverable worker kills: deterministic per scope, capped below the
#: scheduler's default retry budget so every killed job succeeds on a
#: later attempt (see docs/SEARCH.md).
KILL_PLAN = {
    "seed": 7,
    "rules": [
        {"site": "worker.kill", "probability": 0.5, "scopes": [],
         "max_fires": 2, "arg": None},
    ],
}


def run_tune(args: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    cmd = [sys.executable, "-m", "repro.experiments", "tune", *args]
    print(f"$ {' '.join(cmd)}")
    proc = subprocess.run(cmd, env=env, cwd=REPO_ROOT,
                          capture_output=True, text=True, timeout=900)
    sys.stdout.write(proc.stdout[-2000:])
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"tune leg failed (exit {proc.returncode})")
    return proc


def check(cond: bool, message: str) -> None:
    if not cond:
        raise SystemExit(f"FAIL: {message}")
    print(f"ok: {message}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--budget", type=int, default=10)
    parser.add_argument("--bench", default="lbm")
    parser.add_argument("--config", default="4_threads_4_nodes")
    parser.add_argument("--out", default="benchmarks/out/tune_smoke")
    args = parser.parse_args(argv)

    out = REPO_ROOT / args.out
    out.mkdir(parents=True, exist_ok=True)
    cache = out / "cache.sqlite"
    bench_file = out / "BENCH_search.json"
    plan_path = out / "kill_plan.json"
    plan_path.write_text(json.dumps(KILL_PLAN))
    for stale in (cache, bench_file):
        stale.unlink(missing_ok=True)

    base = [
        "--bench", args.bench, "--config", args.config,
        "--profile", "mini", "--budget", str(args.budget),
        "--reps", "2", "--cache", str(cache),
        "--update-bench", str(bench_file),
    ]

    # Leg 1: grid, serial, worker kills injected.
    run_tune([*base, "--driver", "grid", "--executor", "inline",
              "--faultline", str(plan_path),
              "--out", str(out / "grid_inline"),
              "--metrics-out", str(out / "grid_metrics.json")])
    metrics = json.loads((out / "grid_metrics.json").read_text())
    fired = sum(
        c["value"] for c in metrics.get("counters", [])
        if c["name"] == "faultline.injections"
    )
    check(fired >= 1, f"faultline injected worker kills (fired={fired})")

    # Leg 2: evolution on the process executor (cold-ish cache: the
    # grid leg shares paper-policy/baseline lines only).
    run_tune([*base, "--driver", "evolution", "--executor", "process",
              "--out", str(out / "evo_process")])

    # Leg 3: same evolution search, warm cache, serial executor —
    # executor choice must not leak into the log.
    run_tune([*base, "--driver", "evolution", "--executor", "inline",
              "--out", str(out / "evo_rerun")])

    log_a = (out / "evo_process" / f"{args.bench}_search.json").read_bytes()
    log_b = (out / "evo_rerun" / f"{args.bench}_search.json").read_bytes()
    check(log_a == log_b, "same-seed rerun log is byte-identical")

    doc = json.loads(bench_file.read_text())
    entries = doc["trajectory"]
    check(len(entries) == 3, f"3 trajectory entries (got {len(entries)})")
    for entry in entries:
        verdict = entry["verdicts"].get("mem+llc")
        check(
            verdict in ("dominates", "matches"),
            f"{entry['driver']}/{entry['executor']}: front {verdict} mem+llc",
        )
        check(len(entry["front"]) >= 1, "front is non-empty")
    rerun = entries[-1]
    check(
        rerun["cache_hit_rate"] >= 0.95,
        f"warm rerun served from cache (rate={rerun['cache_hit_rate']})",
    )
    print("tune smoke: all checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
