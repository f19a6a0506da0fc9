"""Chaos-test the job service with seeded, replayable fault campaigns.

Thin CLI over :func:`repro.faultline.campaign.run_campaign`: generates
random :class:`FaultPlan`\\ s from a seed, runs a fixed set of small
jobs under each, and checks the degradation invariant — every job
either completes bit-identical to the fault-free baseline or raises a
typed ``ServiceError`` within its deadline.  On the first violation the
failing plan is written as a JSON artifact (what CI uploads) and the
exact replay command is printed.

Usage::

    PYTHONPATH=src python tools/chaos_sim.py --budget 60s --seed 3
    PYTHONPATH=src python tools/chaos_sim.py --executor process --seed 3
    PYTHONPATH=src python tools/chaos_sim.py --replay chaos_plan.json

``--budget`` accepts plain seconds ("30"), seconds with a suffix
("120s"), or minutes ("2m").  Exit status: 0 = invariant held for every
case, 1 = a violation was found (plan dumped), 2 = bad arguments.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.faultline.campaign import run_campaign, run_case  # noqa: E402
from repro.faultline.plan import FaultPlan  # noqa: E402


def parse_budget(text: str) -> float:
    """'30' / '120s' / '2m' -> seconds."""
    text = text.strip().lower()
    factor = 1.0
    if text.endswith("m"):
        factor, text = 60.0, text[:-1]
    elif text.endswith("s"):
        text = text[:-1]
    try:
        seconds = float(text) * factor
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad budget: {text!r}") from None
    if seconds <= 0:
        raise argparse.ArgumentTypeError("budget must be positive")
    return seconds


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="chaos_sim", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--budget", type=parse_budget, default=30.0,
                        metavar="TIME", help="wall-clock budget, e.g. "
                        "'30', '120s', '2m' (default 30s)")
    parser.add_argument("--seed", type=int, default=0,
                        help="master seed for plan generation")
    parser.add_argument("--max-cases", type=int, default=None,
                        help="stop after N cases even if budget remains")
    parser.add_argument("--executor", default="inline",
                        choices=["inline", "process"],
                        help="scheduler executor for campaign jobs "
                        "(inline is faster; process adds fork isolation)")
    parser.add_argument("--artifact", default="chaos_failing_plan.json",
                        metavar="PATH", help="where to dump a failing "
                        "plan (the replayable CI artifact)")
    parser.add_argument("--replay", default=None, metavar="PLAN.json",
                        help="replay one serialized plan instead of "
                        "running a campaign")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="print each case's plan as it starts")
    args = parser.parse_args(argv)

    if args.replay is not None:
        plan = FaultPlan.loads(Path(args.replay).read_text())
        detail = run_case(plan, executor=args.executor)
        if detail is None:
            print(f"replayed {args.replay}: invariant held")
            return 0
        print(f"replayed {args.replay}: INVARIANT VIOLATION\n  {detail}")
        return 1

    def on_case(index, plan):
        if args.verbose:
            sites = ",".join(r.site for r in plan.rules)
            print(f"[{index}] seed={plan.seed} sites={sites}", flush=True)

    result = run_campaign(
        budget_s=args.budget, seed=args.seed, max_cases=args.max_cases,
        executor=args.executor, on_case=on_case,
    )
    rate = result.cases_run / result.elapsed_s if result.elapsed_s else 0.0
    print(f"ran {result.cases_run} cases in {result.elapsed_s:.1f}s "
          f"({rate:.1f}/s), seed={args.seed}, executor={args.executor}")
    if result.ok:
        print("degradation invariant held for every case")
        return 0
    failure = result.failure
    print("\nINVARIANT VIOLATION")
    print(f"  case {failure.case_index} (campaign seed {args.seed})")
    print(f"  {failure.detail}")
    Path(args.artifact).write_text(failure.plan.dumps() + "\n")
    print(f"\nfailing plan written to {args.artifact}")
    print("replay with:")
    print(f"  PYTHONPATH=src python tools/chaos_sim.py "
          f"--replay {args.artifact} --executor {args.executor}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
