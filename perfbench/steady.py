"""Steadiness mode: repeat a workload and summarise each metric's spread.

Runs ``run.py`` once per seed, each time in a fresh interpreter (one
process per run, as the benchmark is meant to be run), one after the
other, and prints each metric's median, first and third quartile and
the inter-quartile spread as a share of the median::

    python3 perfbench/steady.py --workload tune_lbm --runs 10 --seed0 1

Quartiles are ``statistics.quantiles(values, n=4)``.  The last line is
a JSON object ``{workload: {metric: {median, q1, q3, spread}}}``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def summarise(values: list[float]) -> dict:
    """Median, quartiles and inter-quartile spread / median."""
    med = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True,
                        help="workload name (repeat the flag for several)")
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seed0", type=int, default=1,
                        help="seed of the first run; run i uses seed0 + i")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    summary: dict = {}
    ok = True
    for workload in args.workload:
        values: dict[str, list[float]] = {}
        for i in range(args.runs):
            doc = run_once(workload, args.seed0 + i, args.seconds, args.trace)
            ok = ok and doc["correct"] and doc["failed"] == 0
            for name, m in doc["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {args.seed0 + i}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in doc["metrics"].items()
            ), flush=True)
        summary[workload] = {k: summarise(v) for k, v in values.items()}
        for name, s in summary[workload].items():
            print(f"{workload:14s} {name:28s} median {s['median']:>12.5g}  "
                  f"q1 {s['q1']:>12.5g}  q3 {s['q3']:>12.5g}  "
                  f"spread {100 * s['spread']:6.2f}%")
    print(json.dumps(summary))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
