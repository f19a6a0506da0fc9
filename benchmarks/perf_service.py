"""Service load harness: throughput, latency quantiles, cache hit rate.

Drives a chaos-free load through the full service plane — a 4-shard
:class:`~repro.service.client.ServiceClient` with the process executor,
metrics on — and reports what the metrics registry measured:

* jobs/s over the drain window (completed + cache hits, wall clock),
* p50/p99 attempt latency from the ``sched.attempt_s`` log-linear
  histogram registry (not from per-job timers),
* cache hit rate (each unique spec is submitted twice; the second
  submission must be served by the content-addressed store).

Results are appended as one trajectory point to ``BENCH_service.json``
at the repo root with ``--update``; otherwise they go to
``benchmarks/out/BENCH_service.json`` (the CI artifact) and stdout.

Usage::

    PYTHONPATH=src python benchmarks/perf_service.py            # measure
    PYTHONPATH=src python benchmarks/perf_service.py --update   # + append

The default workload is a tiny synthetic spec per job (mini profile),
so the harness measures *service* overhead — queueing, forking, result
piping, store round-trips — rather than simulator throughput, which
``perf_baseline.py`` already tracks.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.obs.dashboard import merge_named_histograms  # noqa: E402
from repro.obs.metrics import (  # noqa: E402
    MetricsRegistry,
    find_metric,
    quantile_from_snapshot,
)
from repro.service.client import ServiceClient  # noqa: E402
from repro.service.jobs import JobSpec  # noqa: E402

SHARDS = 4
UNIQUE_JOBS = 32  # x2 submissions = 64 jobs through the scheduler

def _specs(unique: int) -> list[JobSpec]:
    """Distinct tiny synthetic specs (distinct digests via rep/seed)."""
    return [
        JobSpec(kind="synthetic", bench="synthetic", policy="buddy",
                config="4_threads_4_nodes", rep=i, seed=i, profile="mini")
        for i in range(unique)
    ]


def measure(unique: int = UNIQUE_JOBS, shards: int = SHARDS) -> dict:
    """Run the load and compute the trajectory entry (minus provenance)."""
    registry = MetricsRegistry()
    specs = _specs(unique)
    t0 = time.perf_counter()
    with ServiceClient(store=":memory:", shards=shards, executor="process",
                       metrics=registry) as client:
        first = client.submit_many(specs)
        for handle in first:
            handle.result(timeout=300)
        second = client.submit_many(specs)
        for handle in second:
            handle.result(timeout=300)
        client.drain(timeout=60)
        wall_s = time.perf_counter() - t0
        cache_hits = sum(1 for h in second if h.from_cache)

    snapshot = registry.snapshot()
    completed = find_metric(snapshot, "counters", "sched.jobs",
                            outcome="completed")
    hit_counter = find_metric(snapshot, "counters", "sched.jobs",
                              outcome="cache_hit")
    done = (completed["value"] if completed else 0.0)
    hits = (hit_counter["value"] if hit_counter else 0.0)
    served = done + hits
    attempt = merge_named_histograms(snapshot, "sched.attempt_s")
    if attempt is None:
        raise AssertionError("no sched.attempt_s samples recorded")
    if hits != cache_hits:
        raise AssertionError(
            f"histogram registry saw {hits} cache hits, "
            f"handles saw {cache_hits}"
        )
    return {
        "shards": shards,
        "executor": "process",
        "unique_specs": unique,
        "jobs_submitted": unique * 2,
        "jobs_completed": int(done),
        "cache_hits": int(hits),
        "cache_hit_rate": round(hits / served, 3) if served else 0.0,
        "wall_s": round(wall_s, 3),
        "jobs_per_s": round(served / wall_s, 2) if wall_s else 0.0,
        "attempt_p50_s": round(quantile_from_snapshot(attempt, 0.50), 6),
        "attempt_p99_s": round(quantile_from_snapshot(attempt, 0.99), 6),
        "attempt_mean_s": round(attempt["sum"] / attempt["count"], 6),
    }


def _provenance() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO_ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "date": time.strftime("%Y-%m-%d"),
        "commit": commit,
        "python": platform.python_version(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--jobs", type=int, default=UNIQUE_JOBS,
        help=f"unique specs; each is submitted twice (default {UNIQUE_JOBS})",
    )
    parser.add_argument(
        "--shards", type=int, default=SHARDS,
        help=f"scheduler shards (default {SHARDS})",
    )
    parser.add_argument(
        "--update", action="store_true",
        help="append this measurement to BENCH_service.json at the repo root",
    )
    args = parser.parse_args(argv)

    entry = {**_provenance(), **measure(args.jobs, args.shards)}
    print(json.dumps(entry, indent=2))

    out_dir = Path(__file__).parent / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / "BENCH_service.json").write_text(json.dumps(entry, indent=2))

    if args.update:
        bench_file = REPO_ROOT / "BENCH_service.json"
        doc = json.loads(bench_file.read_text()) if bench_file.exists() else {
            "benchmark": "service_load",
            "description": (
                "Simulation-job service throughput: the chaos-free "
                "two-pass cache load (unique mini synthetic specs x2, "
                "4 shards, process executor). Latency quantiles come "
                "from the metrics registry's log-linear histograms."
            ),
            "trajectory": [],
        }
        doc["trajectory"].append(entry)
        bench_file.write_text(json.dumps(doc, indent=2) + "\n")
        print(f"appended to {bench_file}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
