"""Regenerate every paper figure from the command line.

Usage::

    python -m repro.experiments [--profile scaled|full|mini]
                                [--reps N] [--configs all|c1,c2]
                                [--out DIR] [--skip-sweep]

Prints Figs. 10-14 as ASCII charts and writes the raw run records to
``DIR/main_sweep.csv`` (plus ``fig10.csv``).

The ``tune`` subcommand runs the policy search instead::

    python -m repro.experiments tune --bench lbm --budget 48
                                     [--driver grid|evolution]
                                     [--executor inline|process]

See :mod:`repro.search.tune` for the full flag set.

The ``matrix`` subcommand reruns the fig. 11-style sweep across the
platform family and emits the cross-platform payoff/inversion table::

    python -m repro.experiments matrix [--platforms a,b,c] [--benches ...]
                                       [--reps N] [--scale S]

See :mod:`repro.experiments.matrix`.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.alloc.policies import Policy
from repro.experiments.configs import CONFIG_ORDER
from repro.experiments.figures import FIG10_POLICIES, fig10, fig11, fig12, fig13, fig14
from repro.experiments.report import write_csv
from repro.experiments.runner import run_synthetic, sweep
from repro.obs import NULL_OBSERVER, Observer, export_run
from repro.service.store import STORE_SUFFIXES
from repro.workloads.registry import BENCH_ORDER


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "tune":
        from repro.search.tune import main as tune_main

        return tune_main(argv[1:])
    if argv and argv[0] == "matrix":
        from repro.experiments.matrix import main as matrix_main

        return matrix_main(argv[1:])
    parser = argparse.ArgumentParser(prog="repro.experiments")
    parser.add_argument("--profile", default="scaled",
                        choices=["scaled", "full", "mini"])
    parser.add_argument("--reps", type=int, default=2)
    parser.add_argument(
        "--configs", default="16_threads_4_nodes,4_threads_4_nodes",
        help='comma-separated config names, or "all"',
    )
    parser.add_argument("--out", default="benchmarks/out")
    parser.add_argument("--skip-sweep", action="store_true",
                        help="only run the (cheap) synthetic Fig. 10")
    parser.add_argument("--experiments-md", default=None, metavar="PATH",
                        help="also write the paper-vs-measured ledger "
                             "(EXPERIMENTS.md) to PATH")
    parser.add_argument("--trace-out", default=None, metavar="DIR",
                        help="record an observability trace per run into "
                             "DIR: one Perfetto trace_event JSON file "
                             "(open in chrome://tracing or "
                             "ui.perfetto.dev)")
    parser.add_argument("--sanitize", default="off",
                        choices=["off", "cheap", "full"],
                        help="arm runtime invariant checking (repro.sanitize)"
                             " in every run; 'cheap' samples counter "
                             "conservation, 'full' adds structural walks; "
                             "'off' costs nothing")
    parser.add_argument("--cache", default=None, metavar="PATH",
                        help="content-addressed result store for the main "
                             "sweep (a .sqlite, .sqlite3 or .db file, via "
                             "repro.service); "
                             "reruns reuse any (config, policy, seed) run "
                             "already stored instead of simulating it again")
    parser.add_argument("--faultline", default=None, metavar="PLAN.json",
                        help="arm a serialized repro.faultline FaultPlan "
                             "for the whole invocation (chaos replay: the "
                             "same plan JSON reproduces the same faults "
                             "bit-for-bit); an empty plan is a no-op")
    parser.add_argument("--metrics-out", default=None, metavar="PATH",
                        help="install an ambient repro.obs metrics registry "
                             "for the whole invocation and write the final "
                             "snapshot to PATH as JSON (read by "
                             "python -m repro.obs top)")
    args = parser.parse_args(argv)
    # The sweep opens the store only after Fig. 10 has run.
    if args.cache is not None and not args.cache.endswith(STORE_SUFFIXES):
        parser.error(f"--cache must end in {', '.join(STORE_SUFFIXES)}")

    registry = None
    if args.metrics_out is not None:
        from repro.obs import metrics as obs_metrics

        registry = obs_metrics.MetricsRegistry()
        obs_metrics.install(registry)

    try:
        return _run(args, registry)
    finally:
        if registry is not None:
            from repro.obs import metrics as obs_metrics

            obs_metrics.uninstall()
            path = obs_metrics.write_snapshot(args.metrics_out,
                                              registry.snapshot())
            print(f"metrics snapshot: {path}")


def _run(args, registry) -> int:

    if args.faultline is not None:
        from repro.faultline import FaultPlan, arm

        plan = FaultPlan.from_json(
            json.loads(Path(args.faultline).read_text())
        )
        arm(plan)
        print(f"faultline: armed plan seed={plan.seed} "
              f"rules={len(plan.rules)} from {args.faultline}")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    configs = (
        list(CONFIG_ORDER) if args.configs == "all" else args.configs.split(",")
    )

    # ---------------------------------------------------------------- Fig 10
    t0 = time.time()
    print("== Fig. 10: synthetic benchmark ==")
    fig10_records = []
    for policy in FIG10_POLICIES:
        for rep in range(args.reps):
            observer = NULL_OBSERVER if args.trace_out is None else Observer()
            fig10_records.append(
                run_synthetic(policy, "16_threads_4_nodes", rep=rep,
                              profile=args.profile, observer=observer,
                              sanitize=args.sanitize)
            )
            if args.trace_out is not None:
                path = export_run(
                    observer, args.trace_out,
                    f"synthetic_{policy.label}_rep{rep}",
                )
                print(f"  trace: {path}")
    write_csv(fig10_records, str(out / "fig10.csv"))
    f10 = fig10(fig10_records)
    print(f10.render())
    print(f"MEM/LLC reduction vs buddy: {f10.reduction_vs_buddy():.1%} "
          f"(paper: up to 17%)\n")

    if args.skip_sweep:
        return 0

    # ------------------------------------------------------------- Figs 11-14
    print(f"== main sweep: {len(BENCH_ORDER)} benchmarks x "
          f"{len(list(Policy))} policies x {len(configs)} configs x "
          f"{args.reps} reps ==")
    records = sweep(
        benches=list(BENCH_ORDER),
        policies=list(Policy),
        configs=configs,
        reps=args.reps,
        profile=args.profile,
        trace_dir=args.trace_out,
        sanitize=args.sanitize,
        cache=args.cache,
    )
    write_csv(records, str(out / "main_sweep.csv"))
    print(f"(sweep took {time.time() - t0:.0f}s; CSV in {out})\n")

    f11, f12 = fig11(records), fig12(records)
    for config in configs:
        print(f11.render(config))
        print()
        print(f12.render(config))
        print()
    headline = configs[0]
    print(fig13(records, headline).render("lbm"))
    print()
    print(fig14(records, headline).render("lbm"))

    if args.experiments_md:
        from repro.experiments.experiments_md import write_experiments_md

        write_experiments_md(
            args.experiments_md, fig10_records, records,
            profile=args.profile, reps=args.reps, configs=configs,
        )
        print(f"\nwrote {args.experiments_md}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
