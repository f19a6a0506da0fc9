#!/usr/bin/env python
"""Trace explorer: record and export an observability trace of one run.

Replays a Fig. 10-style synthetic run (alternating-stride writes, the
pattern behind the paper's interference argument) with tracing enabled
and writes ``<out>/<stem>.trace.json``, Chrome/Perfetto ``trace_event``
JSON.  Open it in ``chrome://tracing`` or https://ui.perfetto.dev to
see the section spans, per-thread barrier waits, page-fault services,
every DRAM transaction on its controller lane, and the counter
timelines (row hits/misses/conflicts, remote accesses, per-controller
queue gauges, cache hit/miss, color-list fill) on the sampling cadence.

Run:  python examples/trace_explorer.py [policy] [outdir]
      python examples/trace_explorer.py buddy traces
"""

import sys

from repro.alloc.policies import Policy
from repro.experiments.runner import run_synthetic
from repro.obs import Observer, export_run
from repro.workloads.synthetic import SyntheticSpec


def main() -> None:
    label = sys.argv[1] if len(sys.argv) > 1 else "mem+llc"
    policy = next((p for p in Policy if p.label == label), None)
    if policy is None:
        known = ", ".join(p.label for p in Policy)
        sys.exit(f"unknown policy {label!r} — choose one of: {known}")
    outdir = sys.argv[2] if len(sys.argv) > 2 else "traces"

    obs = Observer(sample_interval_ns=2000.0, ring_capacity=65536)
    spec = SyntheticSpec(per_thread_bytes=256 * 1024)
    print(f"running synthetic benchmark under {policy.label} with tracing ...")
    record = run_synthetic(
        policy, "16_threads_4_nodes", profile="mini", spec=spec, observer=obs
    )

    print(f"simulated runtime {record.runtime / 1e6:.3f} ms, "
          f"{record.dram_accesses} DRAM accesses, "
          f"{record.row_conflicts} row conflicts, "
          f"remote fraction {record.remote_fraction:.1%}")
    print(f"captured {len(obs.events)} events, {len(obs.samples)} counter "
          f"samples ({obs.samples.evicted} evicted, "
          f"{obs.dropped_events} events dropped)")

    spans = [e for e in obs.events if hasattr(e, "duration")]
    spans.sort(key=lambda e: e.duration, reverse=True)
    print("\nlongest spans:")
    for e in spans[:8]:
        print(f"  {e.track:>8}/{e.tid:<3} {e.name:<14} "
              f"{e.begin / 1e3:10.1f} us  +{e.duration / 1e3:.1f} us")

    names = obs.counter_names
    final_ts, final = obs.samples.last()
    print(f"\nfinal counter values (t = {final_ts / 1e3:.1f} us):")
    for key in ("dram.row_hits", "dram.row_conflicts",
                "dram.remote_accesses", "cache.llc.misses",
                "kernel.colored_allocs", "kernel.free.colored"):
        print(f"  {key:<24} {final[names.index(key)]:.0f}")

    stem = f"synthetic_{policy.label.replace('+', '_').replace('(', '').replace(')', '')}"
    path = export_run(obs, outdir, stem)
    print(f"\nwrote {path}")
    print("open it in chrome://tracing or ui.perfetto.dev")


if __name__ == "__main__":
    main()
