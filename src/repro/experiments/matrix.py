"""Cross-platform payoff matrix: the fig. 11 sweep over the platform family.

``python -m repro.experiments matrix`` reruns the paper's
benchmark x policy sweep on every platform in the grid (Opteron plus the
generalized presets of :data:`repro.machine.presets.PLATFORMS`,
including the disaggregated one) and emits a payoff/inversion table:
per-platform runtime and divergence deltas for buddy vs the coloring
policies, plus a "tuned" column naming the best policy for that
(platform, bench) cell.

Before sweeping each platform, the fast replay path is validated against
the reference loop *on that platform* — bit-identical metric snapshots
and the analytic-model identities of :mod:`repro.sanitize.diff`, or the
matrix aborts — so cross-platform numbers carry the same equivalence
guarantee the Opteron results do.

A policy's benefit is *inverted* on a platform when its mean runtime is
worse than buddy's there; those cells are flagged in the table and
summarised at the bottom (the headline result: controller-aware
coloring's payoff is a property of the mapping, not of allocation
policy in general).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from pathlib import Path

from repro.alloc.policies import Policy
from repro.experiments.configs import ExperimentConfig, configs_for
from repro.experiments.runner import RunRecord, _fresh_environment, run_benchmark
from repro.machine.presets import PLATFORMS, MachineSpec, platform
from repro.sanitize.diff import differential_run
from repro.util.rng import RngStream
from repro.util.units import MIB
from repro.workloads.base import build_spmd_program
from repro.workloads.registry import get_workload

#: Default grid: the paper's (scaled) part plus one per new scheme,
#: including the disaggregated preset.
DEFAULT_PLATFORMS = (
    "opteron_6128_scaled", "modern_8ch", "bigbank_4n", "disagg_2n"
)

#: Policies swept per platform (BPM excluded: it is the related-work
#: baseline, not part of the payoff question).
MATRIX_POLICIES = (
    Policy.BUDDY, Policy.MEM, Policy.LLC, Policy.MEM_LLC,
    Policy.MEM_LLC_PART, Policy.LLC_MEM_PART,
)


def headline_config(machine: MachineSpec) -> ExperimentConfig:
    """The all-cores-all-nodes configuration for a preset."""
    configs = configs_for(machine.topology)
    return next(iter(configs.values()))


def check_equivalence(
    machine: MachineSpec, bench: str, scale: float
) -> None:
    """Assert fast-vs-reference bit identity for one run on ``machine``.

    One :func:`~repro.sanitize.diff.differential_run` of mem+llc on the
    headline configuration, fast then reference (no traced leg).
    Raises AssertionError naming the platform and the first divergent
    field, or the analytic-model identities the reference run broke.
    """
    config = headline_config(machine)
    spec = get_workload(bench)
    if scale != 1.0:
        spec = spec.scaled(scale)

    def builder(observer):
        team, engine = _fresh_environment(
            config, Policy.MEM_LLC, machine, age_seed=0, observer=observer
        )
        rng = RngStream(0, bench, config.name)
        return engine, build_spmd_program(spec, team, rng)

    report = differential_run(builder, include_traced=False)
    if not report.clean:
        where = (
            f"at {report.first.path}" if report.first is not None
            else "on an analytic identity"
        )
        raise AssertionError(
            f"fast/reference gate failed on platform {machine.name} "
            f"({bench}) {where}:\n{report.describe()}"
        )


@dataclasses.dataclass(frozen=True)
class MatrixCell:
    """Aggregated sweep result for one (platform, bench, policy)."""

    platform: str
    bench: str
    policy: str
    runtime: float  # mean over reps
    payoff_pct: float  # runtime reduction vs buddy (positive = faster)
    divergence: float  # mean normalized thread-runtime spread
    remote_fraction: float
    dram_accesses: float
    inverted: bool  # slower than buddy on this platform


def _divergence(record: RunRecord) -> float:
    return record.runtime_spread / record.max_thread_runtime


def run_matrix(
    platforms=DEFAULT_PLATFORMS,
    benches=("lbm", "art"),
    reps: int = 2,
    memory_bytes: int = 256 * MIB,
    scale: float = 0.05,
    progress=None,
) -> list[MatrixCell]:
    """Run the sweep over the platform grid and aggregate cells.

    Each platform first passes :func:`check_equivalence` (fast ==
    reference, bit-identical) on ``benches[0]``, or the matrix aborts.
    """
    say = progress if progress is not None else (lambda msg: None)
    cells: list[MatrixCell] = []
    for pname in platforms:
        machine = platform(pname, memory_bytes)
        t0 = time.time()
        check_equivalence(machine, benches[0], scale)
        say(f"[{pname}] fast == reference: bit-identical "
            f"({time.time() - t0:.1f}s)")
        config = headline_config(machine)
        by_policy: dict[tuple[str, str], list[RunRecord]] = {}
        for bench in benches:
            for pol in MATRIX_POLICIES:
                records = [
                    run_benchmark(
                        bench, pol, config, rep=rep, machine=machine,
                        scale=scale,
                    )
                    for rep in range(reps)
                ]
                by_policy[(bench, pol.label)] = records
                say(f"[{pname}] {bench:12s} {pol.label:13s} "
                    f"runtime={_mean([r.runtime for r in records]):.3e}")
        for bench in benches:
            buddy = _mean(
                [r.runtime for r in by_policy[(bench, Policy.BUDDY.label)]]
            )
            for pol in MATRIX_POLICIES:
                records = by_policy[(bench, pol.label)]
                runtime = _mean([r.runtime for r in records])
                payoff = 100.0 * (buddy - runtime) / buddy if buddy else 0.0
                cells.append(MatrixCell(
                    platform=pname,
                    bench=bench,
                    policy=pol.label,
                    runtime=runtime,
                    payoff_pct=payoff,
                    divergence=_mean([_divergence(r) for r in records]),
                    remote_fraction=_mean(
                        [r.remote_fraction for r in records]
                    ),
                    dram_accesses=_mean(
                        [float(r.dram_accesses) for r in records]
                    ),
                    inverted=pol is not Policy.BUDDY and runtime > buddy,
                ))
    return cells


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def tuned_cells(cells: list[MatrixCell]) -> dict[tuple[str, str], MatrixCell]:
    """Best non-buddy policy per (platform, bench) by mean runtime."""
    best: dict[tuple[str, str], MatrixCell] = {}
    for cell in cells:
        if cell.policy == Policy.BUDDY.label:
            continue
        key = (cell.platform, cell.bench)
        if key not in best or cell.runtime < best[key].runtime:
            best[key] = cell
    return best


def render_markdown(cells: list[MatrixCell]) -> str:
    """The payoff/inversion table as GitHub markdown."""
    lines = [
        "| platform | bench | policy | runtime (ns) | vs buddy | "
        "divergence | remote | inverted |",
        "|---|---|---|---:|---:|---:|---:|:---:|",
    ]
    for c in cells:
        lines.append(
            f"| {c.platform} | {c.bench} | {c.policy} | {c.runtime:.3e} | "
            f"{c.payoff_pct:+.1f}% | {c.divergence:.3f} | "
            f"{c.remote_fraction:.3f} | {'YES' if c.inverted else ''} |"
        )
    best = tuned_cells(cells)
    lines.append("")
    lines.append("**Tuned (best policy per platform x bench):**")
    lines.append("")
    for (pname, bench), cell in sorted(best.items()):
        lines.append(
            f"- `{pname}` / `{bench}`: **{cell.policy}** "
            f"({cell.payoff_pct:+.1f}% vs buddy)"
        )
    inversions = [c for c in cells if c.inverted]
    lines.append("")
    if inversions:
        lines.append("**Inversions (policy slower than buddy):**")
        lines.append("")
        for c in inversions:
            lines.append(
                f"- `{c.platform}` / `{c.bench}`: {c.policy} "
                f"({c.payoff_pct:+.1f}%)"
            )
    else:
        lines.append("No inversions in this grid.")
    return "\n".join(lines)


def write_matrix_csv(cells: list[MatrixCell], path: str) -> None:
    rows = ["platform,bench,policy,runtime,payoff_pct,divergence,"
            "remote_fraction,dram_accesses,inverted"]
    for c in cells:
        rows.append(
            f"{c.platform},{c.bench},{c.policy},{c.runtime!r},"
            f"{c.payoff_pct!r},{c.divergence!r},{c.remote_fraction!r},"
            f"{c.dram_accesses!r},{int(c.inverted)}"
        )
    Path(path).write_text("\n".join(rows) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro.experiments matrix")
    parser.add_argument(
        "--platforms", default=",".join(DEFAULT_PLATFORMS),
        help=f'comma-separated preset names, or "all"; known: '
             f'{sorted(PLATFORMS)}',
    )
    parser.add_argument("--benches", default="lbm,art")
    parser.add_argument("--reps", type=int, default=2)
    parser.add_argument("--memory-mib", type=int, default=256)
    parser.add_argument("--scale", type=float, default=0.05)
    parser.add_argument("--out", default="benchmarks/out")
    args = parser.parse_args(argv)

    platforms = (
        list(PLATFORMS) if args.platforms == "all"
        else args.platforms.split(",")
    )
    benches = args.benches.split(",")
    t0 = time.time()
    cells = run_matrix(
        platforms=platforms,
        benches=benches,
        reps=args.reps,
        memory_bytes=args.memory_mib * MIB,
        scale=args.scale,
        progress=print,
    )
    table = render_markdown(cells)
    print()
    print(table)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "matrix.md").write_text(table + "\n")
    write_matrix_csv(cells, str(out / "matrix.csv"))
    print(f"\nwrote {out / 'matrix.md'} and {out / 'matrix.csv'} "
          f"({time.time() - t0:.0f}s)")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
