"""``tune`` entry point: run one policy search end to end.

Invoked as ``python -m repro.experiments tune --bench lbm --budget 48``.
Builds the :class:`~repro.search.space.SearchSpace` for the chosen
config/profile, a :class:`~repro.service.ServiceClient` on the chosen
executor (``inline`` serial or ``process`` pool), runs the chosen
driver, and writes three artifacts:

* ``<out>/<bench>_search.json`` — the deterministic, replayable search
  log (:func:`~repro.search.report.search_log_json`);
* ``<out>/<bench>_search.md`` — the Markdown report vs the paper's
  ``buddy`` and ``mem+llc`` baselines;
* with ``--update-bench``, an appended trajectory entry in
  ``BENCH_search.json`` (same shape conventions as
  ``BENCH_service.json``).
"""

from __future__ import annotations

import argparse
import datetime
import json
import subprocess
import sys
import time
from pathlib import Path

from repro.obs import metrics as obs_metrics
from repro.obs.metrics import MetricsRegistry
from repro.search.drivers import (
    DRIVERS,
    SearchOutcome,
    SearchSettings,
    ServiceEvaluator,
)
from repro.search.report import (
    render_report,
    search_log_json,
    verdict_vs_baseline,
)
from repro.search.space import SearchSpace
from repro.service.client import ServiceClient


def _git_commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except Exception:  # noqa: BLE001 - best-effort provenance only
        return "unknown"


def run_search(settings: SearchSettings, driver: str = "evolution",
               executor: str = "inline", store: "str | None" = None,
               shards: int = 1,
               metrics: MetricsRegistry | None = None) -> SearchOutcome:
    """Run one search on the chosen executor; returns the outcome.

    Without ``store`` the search still caches in memory for its own
    lifetime, so a promotion's first reps and the baselines' genome
    twins are served from results it already has.
    """
    space = SearchSpace(settings.config, settings.profile)
    with ServiceClient(store=":memory:" if store is None else store,
                       shards=shards if executor != "inline" else 1,
                       executor=executor, metrics=metrics) as client:
        evaluator = ServiceEvaluator(client, settings, metrics=metrics)
        return DRIVERS[driver](
            space, evaluator, settings, metrics=metrics
        ).run()


def bench_entry(outcome: SearchOutcome, executor: str,
                wall_s: float) -> dict:
    """One BENCH_search.json trajectory entry for this run."""
    executed = outcome.stats.get("jobs_executed", 0)
    cached = outcome.stats.get("jobs_cached", 0)
    total = executed + cached
    return {
        "date": datetime.date.today().isoformat(),
        "commit": _git_commit(),
        "python": sys.version.split()[0],
        "driver": outcome.driver,
        **outcome.settings.to_json(),
        "executor": executor,
        "evaluations": outcome.evaluations,
        "jobs_executed": executed,
        "cache_hits": cached,
        "cache_hit_rate": round(cached / total, 3) if total else 0.0,
        "wall_s": round(wall_s, 3),
        "front": outcome.front.to_json(),
        "baselines": {
            name: result.to_json()
            for name, result in sorted(outcome.baselines.items())
        },
        "verdicts": {
            name: verdict_vs_baseline(outcome, result)[0]
            for name, result in sorted(outcome.baselines.items())
        },
    }


def update_bench_file(path: Path, entry: dict) -> None:
    """Append ``entry`` to the BENCH_search.json trajectory at ``path``."""
    if path.exists():
        doc = json.loads(path.read_text())
    else:
        doc = {
            "benchmark": "policy_search",
            "description": (
                "Controller-aware coloring auto-tuning: budgeted grid / "
                "evolutionary search over per-thread bank+LLC color "
                "genomes, evaluated as content-addressed JobSpecs through "
                "the job service (so repeat genomes and repeat searches "
                "are cache hits).  Each entry records the final "
                "runtime-vs-divergence Pareto front and the verdict "
                "against the paper's buddy and mem+llc baselines; "
                "'dominates'/'matches' means the tuned front contains a "
                "policy at least as good on both objectives.  Equal "
                "(bench, config, profile, seed, budget) entries are "
                "byte-comparable: the search log is deterministic and "
                "cache-replayable."
            ),
            "trajectory": [],
        }
    doc["trajectory"].append(entry)
    path.write_text(json.dumps(doc, indent=1, sort_keys=False) + "\n")


def main(argv: list[str] | None = None) -> int:
    """CLI body for ``python -m repro.experiments tune``."""
    parser = argparse.ArgumentParser(prog="repro.experiments tune")
    parser.add_argument("--bench", default="lbm")
    parser.add_argument("--config", default="16_threads_4_nodes")
    parser.add_argument("--profile", default="scaled",
                        choices=["scaled", "full", "mini"])
    parser.add_argument("--driver", default="evolution",
                        choices=sorted(DRIVERS))
    parser.add_argument("--budget", type=int, default=48,
                        help="genome evaluations the search may spend "
                             "(screens and full evaluations each count 1)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--reps", type=int, default=3,
                        help="repetitions for full (front-eligible) "
                             "evaluations")
    parser.add_argument("--screen-reps", type=int, default=1)
    parser.add_argument("--population", type=int, default=12)
    parser.add_argument("--promote-fraction", type=float, default=0.34)
    parser.add_argument("--sanitize", default="off",
                        choices=["off", "cheap", "full"])
    parser.add_argument("--executor", default="inline",
                        choices=["inline", "process"])
    parser.add_argument("--shards", type=int, default=4,
                        help="scheduler shards (process executor)")
    parser.add_argument("--cache", default=None, metavar="PATH",
                        help="content-addressed result store (a .sqlite, "
                             ".sqlite3 or .db file); a warm store replays "
                             "the whole search without simulating")
    parser.add_argument("--out", default="benchmarks/out")
    parser.add_argument("--update-bench", default=None, metavar="PATH",
                        nargs="?", const="BENCH_search.json",
                        help="append this run to the BENCH_search.json "
                             "trajectory (default path when flag is bare)")
    parser.add_argument("--faultline", default=None, metavar="PLAN.json",
                        help="arm a serialized FaultPlan for the whole "
                             "search (the driver must survive worker "
                             "kills via the scheduler's retries)")
    parser.add_argument("--metrics-out", default=None, metavar="PATH",
                        help="write the search.* metrics snapshot to PATH "
                             "as JSON (read by python -m repro.obs top)")
    args = parser.parse_args(argv)

    if args.faultline is not None:
        from repro.faultline import FaultPlan, arm

        plan = FaultPlan.from_json(json.loads(Path(args.faultline).read_text()))
        arm(plan)
        print(f"faultline: armed plan seed={plan.seed} "
              f"rules={len(plan.rules)} from {args.faultline}")

    settings = SearchSettings(
        bench=args.bench, config=args.config, profile=args.profile,
        seed=args.seed, budget=args.budget, full_reps=args.reps,
        screen_reps=args.screen_reps, population=args.population,
        promote_fraction=args.promote_fraction, sanitize=args.sanitize,
    )
    registry = MetricsRegistry()
    obs_metrics.install(registry)
    print(f"== tune: {args.bench} on {args.config} ({args.profile}) — "
          f"driver {args.driver}, budget {args.budget}, "
          f"executor {args.executor} ==")
    t0 = time.perf_counter()
    try:
        outcome = run_search(
            settings, driver=args.driver, executor=args.executor,
            store=args.cache, shards=args.shards,
            metrics=registry,
        )
    finally:
        obs_metrics.uninstall()
        if args.metrics_out is not None:
            path = obs_metrics.write_snapshot(args.metrics_out,
                                              registry.snapshot())
            print(f"metrics snapshot: {path}")
    wall_s = time.perf_counter() - t0

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    log_path = out / f"{args.bench}_search.json"
    log_path.write_text(
        json.dumps(search_log_json(outcome), indent=1, sort_keys=True) + "\n"
    )
    report = render_report(outcome)
    report_path = out / f"{args.bench}_search.md"
    report_path.write_text(report)
    print(report)
    stats = outcome.stats
    total = stats.get("jobs_executed", 0) + stats.get("jobs_cached", 0)
    print(f"search: {outcome.evaluations} evaluations, {total} jobs "
          f"({stats.get('jobs_cached', 0)} cache hits) in {wall_s:.1f}s")
    print(f"log: {log_path}\nreport: {report_path}")

    if args.update_bench is not None:
        bench_path = Path(args.update_bench)
        update_bench_file(
            bench_path,
            bench_entry(outcome, args.executor, wall_s),
        )
        print(f"bench trajectory: {bench_path}")
    if not len(outcome.front):
        print("warning: empty Pareto front (all candidates errored)")
        return 1
    return 0
