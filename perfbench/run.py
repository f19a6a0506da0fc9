"""The repository's benchmark: one workload per run, in this process.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig11_opteron --seed 0 \\
        --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``fig11_opteron``, ``matrix_disagg``,
``tune_lbm``.  ``--seed`` seeds the workload's inputs; seed 0 is the
committed default, whose outputs are checked against
``digests.json``.  Other seeds are checked by invariants instead:
fast==reference replay on one job, and for the search warm==cold.

With ``--trace 0`` a run sets up the workload several times (each
set-up re-imports the simulator), then runs its fixed work, set up
afresh each time, until ``--seconds`` have passed (at least once), and
prints the end-to-end metrics as medians over the set-ups and units:
``wall_s`` (time for the fixed work after set-up), ``sim_accesses_per_s``
(simulated accesses per second of it), ``setup_s`` (imports, preset and
store construction) and ``peak_rss_mib`` (peak resident memory of the
work).  Times are in reference seconds (``hostspeed.py``): wall time
scaled by a calibration loop timed through the work, so that a slow
spell of a shared host does not read as a change; the raw wall times
are printed beside them.

With ``--trace 1`` it runs the work untraced, traced, then untraced
again, and prints the per-layer metrics: self times of each layer, from
spans the benchmark records around the program's public entry points
(``probes.py``) and the engine's ``engine.kernel_ns`` histograms, plus
the modelled-component counts, which repeat exactly for a seed, and the
tracing overhead (traced wall time minus the mean untraced one, all
raw).  The spans are written to ``.perfbench_out/``.

Either way the last line of output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Run
``perfbench/steady.py`` to repeat a workload over several seeds and see
each metric's median and quartiles.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

# The simulator is single-threaded Python; BLAS/OpenMP pools in numpy
# would only add threads that compete for the host's cores.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 0
SETUP_REPS = 9

sys.path.insert(0, str(HERE))

from hostspeed import Clock  # noqa: E402
from probes import Probes  # noqa: E402
from tracing import Tracer, breakdown  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: metric name -> unit, for the end-to-end (untraced) run.
END_TO_END = {
    "wall_s": "s",
    "sim_accesses_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

#: metric name -> unit, for the traced run.
PER_LAYER = {
    "sim.plan_s": "s",
    "sim.replay_s": "s",
    "sim.scalar_replay_self_s": "s",
    "sim.engine_other_s": "s",
    "sim.sections_batched": "count",
    "sim.sections_scalar": "count",
    "sim.batched_share": "ratio",
    "kernel.boot_s": "s",
    "kernel.fault_s": "s",
    "kernel.faults": "count",
    "kernel.fault_us_each": "us",
    "workloads.build_s": "s",
    "metrics.serialize_s": "s",
    "experiments.equivalence_s": "s",
    "service.attempt_s": "s",
    "service.overhead_s": "s",
    "service.store_get_s": "s",
    "service.store_put_s": "s",
    "service.cache_hit_ratio": "ratio",
    "search.driver_s": "s",
    "unattributed_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "sim.accesses": "count",
    "dram.accesses": "count",
    "dram.row_hit_rate": "ratio",
    "llc.miss_rate": "ratio",
    "dram.remote_cache_hit_rate": "ratio",
    "search.jobs_executed": "count",
    "search.jobs_cached": "count",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def model_counts(runs) -> dict:
    """Deterministic modelled-component counts over a unit's runs."""
    accesses = sum(t.accesses for r in runs for t in r.threads)
    dram = [r.dram for r in runs if r.dram is not None]
    llc = [r.cache["llc"] for r in runs if "llc" in r.cache]
    remote_hits = sum(d.remote_cache_hits for d in dram)
    remote_all = remote_hits + sum(d.remote_cache_misses for d in dram)
    return {
        "sim.accesses": accesses,
        "dram.accesses": sum(d.accesses for d in dram),
        "dram.row_hit_rate": _ratio(sum(d.row_hits for d in dram),
                                    sum(d.accesses for d in dram)),
        "llc.miss_rate": _ratio(sum(c.misses for c in llc),
                                sum(c.accesses for c in llc)),
        "dram.remote_cache_hit_rate": _ratio(remote_hits, remote_all),
    }


def layer_metrics(tracer: Tracer, probes: Probes, info: dict) -> dict:
    """The traced unit's per-layer metrics (minus the overhead)."""
    out = breakdown(tracer.spans, "workload")
    faults = [sp for sp in tracer.spans if sp.name == "kernel.fault"]
    fault_total = sum(sp.duration for sp in faults)
    runs = [sp for sp in tracer.spans if sp.name == "sim.run"]
    batched = sum(sp.attrs.get("replay_sections", 0) for sp in runs)
    scalar = sum(sp.attrs.get("scalar_sections", 0) for sp in runs)
    executed = info.get("jobs_executed", 0)
    cached = info.get("jobs_cached", 0)
    out.update({
        "sim.sections_batched": batched,
        "sim.sections_scalar": scalar,
        "sim.batched_share": _ratio(batched, batched + scalar),
        "kernel.faults": len(faults),
        "kernel.fault_us_each": _ratio(fault_total, len(faults)) * 1e6,
        "service.cache_hit_ratio": _ratio(cached, executed + cached),
        "search.jobs_executed": executed,
        "search.jobs_cached": cached,
        **model_counts(probes.runs),
    })
    return out


def reset_peak_rss() -> None:
    """Restart the kernel's peak-RSS mark (Linux ``clear_refs`` 5), so
    each unit's peak excludes set-up; without it the peak is cumulative."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        pass


def peak_rss_mib() -> float:
    """Peak resident set size since the last reset, in MiB."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Bench:
    """One benchmark run of one workload."""

    def __init__(self, workload: str, seed: int, expected: list | None):
        self.w = WORKLOADS[workload]
        self.seed = seed
        self.expected = expected
        self.setup_samples: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.info: dict = {}
        #: peak RSS of each unit's timed work, in MiB.
        self.rss_samples: list[float] = []

    def setup(self) -> dict:
        clock = Clock()
        clock.mark()
        state = self.w.setup(self.seed, str(OUT_DIR))
        clock.mark()
        self.setup_samples.append(clock.totals()[1])
        return state

    def unit(self, state: dict, tracer: Tracer | None = None):
        """Run the workload's fixed work once.

        Returns ``(raw_s, ref_s, probes)``: wall seconds and, untraced,
        reference seconds (``hostspeed.py``); traced, both are the
        traced wall time.
        """
        registry = clock = None
        if tracer is not None:
            from repro.obs import metrics as obs_metrics

            registry = obs_metrics.MetricsRegistry()
        else:
            clock = Clock()
        gc.collect()
        reset_peak_rss()
        with Probes(tracer, registry, clock) as probes:
            if tracer is None:
                clock.mark()
                result = self.w.run(state, probes)
                clock.mark()
                raw, ref = clock.totals()
            else:
                t0 = time.perf_counter()
                with obs_metrics.installed(registry), \
                        tracer.span("workload", anchor=True):
                    result = self.w.run(state, probes)
                raw = ref = time.perf_counter() - t0
        self.rss_samples.append(peak_rss_mib())
        attempted, failed, self.info = self.w.verify(
            state, result, probes, self.expected
        )
        self.attempted += attempted
        self.failed += failed
        if self.expected is None:
            # Off the committed seed the first unit was checked by
            # invariants; every later unit must reproduce its outputs.
            self.expected = self.info["digests"]
        return raw, ref, probes


def run(args) -> tuple[dict, "Bench"]:
    expected = None
    if args.seed == DEFAULT_SEED and not args.write_digests:
        expected = json.loads(DIGESTS.read_text())[args.workload]
    bench = Bench(args.workload, args.seed, expected)
    for _ in range(SETUP_REPS - 1):
        bench.w.discard(bench.setup())
    state = bench.setup()
    started = time.perf_counter()
    raws: list[float] = []
    refs: list[float] = []
    rates: list[float] = []
    while True:
        raw, ref, probes = bench.unit(state)
        raws.append(raw)
        refs.append(ref)
        rates.append(model_counts(probes.runs)["sim.accesses"] / ref)
        if args.trace or time.perf_counter() - started >= args.seconds:
            break
        state = bench.setup()
    print(f"{args.workload:14s} unit wall s (raw): "
          + " ".join(f"{w:.3f}" for w in raws))
    print(f"{args.workload:14s} unit wall s (ref): "
          + " ".join(f"{w:.3f}" for w in refs))
    if not args.trace:
        return {
            "wall_s": statistics.median(refs),
            "sim_accesses_per_s": statistics.median(rates),
            "setup_s": statistics.median(bench.setup_samples),
            "peak_rss_mib": statistics.median(bench.rss_samples),
        }, bench
    # Untraced, traced, untraced: the overhead is taken against the mean
    # of the two untraced units' raw wall time, which brackets slow
    # drift in host speed.
    tracer = Tracer()
    traced_wall, _, probes = bench.unit(bench.setup(), tracer)
    metrics = layer_metrics(tracer, probes, bench.info)
    raws.append(bench.unit(bench.setup())[0])
    metrics["trace.overhead_s"] = traced_wall - statistics.mean(raws)
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
    return metrics, bench


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-digests", action="store_true",
        help="record this run's output digests as the committed ones "
             "for the default seed (checked by invariants instead)",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: simulator sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT_DIR.mkdir(exist_ok=True)

    metrics, bench = run(args)
    units = END_TO_END if not args.trace else PER_LAYER
    for name, unit in units.items():
        print(f"{args.workload:14s} {name:28s} {metrics[name]:>16.6g} {unit}")
    print(f"{args.workload:14s} operations attempted={bench.attempted} "
          f"failed={bench.failed}")
    if args.write_digests:
        if bench.failed:
            print("not writing digests: verification failed", file=sys.stderr)
            return 1
        doc = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
        doc[args.workload] = bench.info["digests"]
        DIGESTS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"wrote {DIGESTS.name} for {args.workload}")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
