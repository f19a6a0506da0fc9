"""Service CLI: ``python -m repro.service <command>``.

Commands::

    demo    submit a small sweep twice through a fresh service and
            report second-pass cache hits + bit-identity (the service's
            acceptance smoke test; exits nonzero if reuse fails)
    submit  run one job through a local service
    status  print a result store's stats

Examples::

    python -m repro.service demo --profile mini --workers 2
    python -m repro.service submit --bench lbm --policy mem+llc \\
        --config 4_threads_4_nodes --store results.jsonl
    python -m repro.service status --store results.jsonl
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro.service.client import ServiceClient
from repro.service.jobs import JobSpec


def _spec_from_args(args) -> JobSpec:
    return JobSpec(
        kind=args.kind,
        bench=args.bench,
        policy=args.policy,
        config=args.config,
        rep=args.rep,
        profile=args.profile,
        seed=args.seed,
        sanitize=args.sanitize,
        timeout_s=args.timeout,
        max_retries=args.retries,
    )


def cmd_demo(args) -> int:
    """Submit the same small sweep twice; verify caching kicks in."""
    benches = args.benches.split(",")
    policies = args.policies.split(",")
    specs = [
        JobSpec(bench=b, policy=p, config=args.config, rep=r,
                profile=args.profile, seed=args.seed, sanitize=args.sanitize)
        for b in benches for p in policies for r in range(args.reps)
    ]
    store = args.store or ":memory:"
    passes = []
    with ServiceClient(store=store, shards=args.workers,
                       executor=args.executor) as client:
        for pass_no in (1, 2):
            t0 = time.time()
            records = client.run(specs)
            stats = client.stats()
            passes.append((records, stats, time.time() - t0))
            print(f"pass {pass_no}: {len(records)} jobs in "
                  f"{passes[-1][2]:.2f}s  "
                  f"(cache hits so far: {stats['cache_hits']}, "
                  f"misses: {stats['cache_misses']}, "
                  f"crashes: {stats['crashes']}, retries: {stats['retries']})")
    first, second = passes
    second_pass_hits = second[1]["cache_hits"] - first[1]["cache_hits"]
    hit_rate = second_pass_hits / len(specs) if specs else 0.0
    identical = first[0] == second[0]
    print(f"second pass: {second_pass_hits}/{len(specs)} cache hits "
          f"({hit_rate:.0%}), records bit-identical: {identical}")
    if hit_rate < 0.95 or not identical:
        print("DEMO FAILED: expected >= 95% cache hits and identical records",
              file=sys.stderr)
        return 1
    print("demo ok")
    return 0


def cmd_submit(args) -> int:
    spec = _spec_from_args(args)
    with ServiceClient(store=args.store, shards=1,
                       executor=args.executor) as client:
        handle = client.submit(spec)
        record = handle.result()
        print(json.dumps(
            {"digest": handle.digest, "from_cache": handle.from_cache,
             "record": record},
            indent=2, sort_keys=True,
        ))
    return 0


def cmd_status(args) -> int:
    from repro.service.store import open_store

    if not os.path.isfile(args.store):
        print(f"repro.service status: no store at {args.store}",
              file=sys.stderr)
        return 1
    store = open_store(args.store)
    try:
        print(json.dumps({"ok": True, "store": store.stats()},
                         indent=2, sort_keys=True))
    finally:
        store.close()
    return 0


def _add_job_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--kind", default="bench",
                        choices=["bench", "synthetic"])
    parser.add_argument("--bench", default="lbm")
    parser.add_argument("--policy", default="mem+llc",
                        help='Policy label, e.g. "buddy", "mem+llc"')
    parser.add_argument("--config", default="4_threads_4_nodes")
    parser.add_argument("--rep", type=int, default=0)
    parser.add_argument("--profile", default="scaled",
                        choices=["full", "scaled", "mini"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--sanitize", default="off",
                        choices=["off", "cheap", "full"])
    parser.add_argument("--timeout", type=float, default=None,
                        help="per-attempt wall-clock budget, seconds")
    parser.add_argument("--retries", type=int, default=2,
                        help="extra attempts after a crash or timeout")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro.service")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("demo", help="two-pass cache demo (smoke test)")
    p.add_argument("--benches", default="lbm,blackscholes")
    p.add_argument("--policies", default="buddy,mem+llc")
    p.add_argument("--config", default="4_threads_4_nodes")
    p.add_argument("--profile", default="mini",
                   choices=["full", "scaled", "mini"])
    p.add_argument("--reps", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sanitize", default="off",
                   choices=["off", "cheap", "full"])
    p.add_argument("--workers", type=int, default=2)
    p.add_argument("--executor", default="process",
                   choices=["process", "inline"])
    p.add_argument("--store", default=None,
                   help="store path (.jsonl/.sqlite); default in-memory")
    p.set_defaults(fn=cmd_demo)

    p = sub.add_parser("submit", help="run one job")
    _add_job_args(p)
    p.add_argument("--store", default=None)
    p.add_argument("--executor", default="process",
                   choices=["process", "inline"])
    p.set_defaults(fn=cmd_submit)

    p = sub.add_parser("status", help="print store stats")
    p.add_argument("--store", required=True,
                   help="an existing store file (.jsonl/.sqlite)")
    p.set_defaults(fn=cmd_status)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
