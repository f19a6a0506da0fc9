"""Run benchmarks under policies and collect picklable result records.

One *run* = a fresh simulated machine (kernel, caches, DRAM), a pinned
colored team, and one benchmark program executed to completion.  Repeats
use different trace seeds; the seed is derived from (bench, config, rep)
but **not** the policy, so policies are compared on identical traces, as
on real hardware where the program does not depend on the allocator.

:func:`sweep` fans runs out through :mod:`repro.service` — runs are
completely independent simulations, so they shard cleanly over isolated
worker processes and cache by content digest.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields
from functools import lru_cache

from repro.alloc.policies import Policy
from repro.core.session import ColoredTeam
from repro.core.tintmalloc import TintMalloc
from repro.experiments.configs import CONFIGS, ExperimentConfig, configs_for
from repro.kernel.kernel import Kernel
from repro.machine.presets import MachineSpec, opteron_6128, opteron_6128_scaled
from repro.obs import NULL_OBSERVER, BaseObserver
from repro.sanitize import SanitizerObserver
from repro.sim.engine import Engine, MemorySystem
from repro.sim.metrics import SCHEMA_VERSION
from repro.util.rng import RngStream
from repro.util.units import GIB, MIB
from repro.workloads.base import build_spmd_program
from repro.workloads.registry import get_workload
from repro.workloads.synthetic import SyntheticSpec, build_synthetic_program

#: Machine memory used for experiment runs (keeps frame tables small while
#: leaving ample colored capacity per thread).
EXPERIMENT_MEMORY = 4 * GIB

#: Run profiles: (machine factory, machine memory, workload scale factor).
#: "scaled" runs the paper's experiments on the 1:4 machine with 1:4
#: workloads — identical capacity/contention ratios, a quarter of the
#: simulated accesses.  It is the default for the benchmark harness.
PROFILES = {
    "full": (opteron_6128, 4 * GIB, 1.0),
    "scaled": (opteron_6128_scaled, 1 * GIB, 0.25),
    # Smoke-test profile: tiny footprints, sub-second runs; shapes are
    # noisier, so use it for plumbing tests only.
    "mini": (opteron_6128_scaled, 256 * MIB, 0.05),
}


@lru_cache(maxsize=None)
def profile_machine(profile: str) -> MachineSpec:
    """The profile's machine preset, built once per process.

    Sharing one instance across runs is safe: a ``MachineSpec`` is
    frozen, its PCI registers are written only while the preset is
    built, and all per-run state lives in the ``Kernel`` and the memory
    system.  Runs then share the mapping's memoized per-frame color and
    compatibility tables instead of rebuilding them at every boot.
    """
    factory, memory, _ = PROFILES[profile]
    return factory(memory)


def profile_scale(profile: str) -> float:
    return PROFILES[profile][2]


def _resolve_config(
    config: str | ExperimentConfig, machine: MachineSpec | None
) -> ExperimentConfig:
    """Accept a config object, a paper config name, or (with an explicit
    machine) a topology-derived name from :func:`configs_for`."""
    if isinstance(config, ExperimentConfig):
        return config
    if machine is not None:
        derived = configs_for(machine.topology)
        if config in derived:
            return derived[config]
    return CONFIGS[config]


@dataclass(frozen=True)
class RunRecord:
    """Picklable summary of one run (everything Figs. 10-14 need)."""

    bench: str
    policy: str
    config: str
    rep: int
    runtime: float
    parallel_runtime: float
    serial_runtime: float
    total_idle: float
    thread_runtimes: tuple[float, ...]
    thread_idles: tuple[float, ...]
    remote_fraction: float
    row_hit_rate: float
    row_conflicts: int
    llc_miss_rate: float
    dram_accesses: int
    faults: int

    @property
    def runtime_spread(self) -> float:
        return max(self.thread_runtimes) - min(self.thread_runtimes)

    @property
    def max_thread_runtime(self) -> float:
        return max(self.thread_runtimes)

    @property
    def max_thread_idle(self) -> float:
        return max(self.thread_idles)

    def to_json(self) -> dict:
        """Lossless plain-dict form of every field, ``schema_version`` first.

        This is the payload the service result store persists; floats
        survive ``json.dumps``/``loads`` exactly (shortest-repr), so a
        cache hit reconstructs a bit-identical record.
        """
        out = {"schema_version": SCHEMA_VERSION}
        out.update({f.name: getattr(self, f.name) for f in fields(self)})
        out["thread_runtimes"] = list(self.thread_runtimes)
        out["thread_idles"] = list(self.thread_idles)
        return out

    @classmethod
    def from_json(cls, data: dict) -> "RunRecord":
        """Inverse of :meth:`to_json`; raises on schema mismatch."""
        version = data.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ValueError(
                f"RunRecord schema_version {version!r} != {SCHEMA_VERSION}"
            )
        return cls(
            bench=data["bench"],
            policy=data["policy"],
            config=data["config"],
            rep=int(data["rep"]),
            runtime=float(data["runtime"]),
            parallel_runtime=float(data["parallel_runtime"]),
            serial_runtime=float(data["serial_runtime"]),
            total_idle=float(data["total_idle"]),
            thread_runtimes=tuple(float(x) for x in data["thread_runtimes"]),
            thread_idles=tuple(float(x) for x in data["thread_idles"]),
            remote_fraction=float(data["remote_fraction"]),
            row_hit_rate=float(data["row_hit_rate"]),
            row_conflicts=int(data["row_conflicts"]),
            llc_miss_rate=float(data["llc_miss_rate"]),
            dram_accesses=int(data["dram_accesses"]),
            faults=int(data["faults"]),
        )


def _sanitized_observer(level: str, inner: BaseObserver) -> BaseObserver:
    """Wrap ``inner`` in a sanitizing observer unless ``level`` is "off".

    "off" returns ``inner`` untouched — the run keeps the fast path and
    pays zero overhead.  "cheap"/"full" force the traced engine path and
    arm every layer checker (see :mod:`repro.sanitize`).
    """
    if level == "off":
        return inner
    return SanitizerObserver.for_level(level, inner=inner)


def _arm_sanitizer(observer: BaseObserver, engine: Engine) -> None:
    """Attach the per-layer checkers to a freshly built environment."""
    if isinstance(observer, SanitizerObserver):
        observer.sanitizer.attach_engine(engine)
        observer.sanitizer.checkpoint("boot")


def _fresh_environment(
    config: ExperimentConfig,
    policy: Policy,
    machine: MachineSpec | None = None,
    age_seed: int = 0,
    observer: BaseObserver = NULL_OBSERVER,
    aged: bool = False,
) -> tuple[ColoredTeam, Engine]:
    machine = machine or opteron_6128(EXPERIMENT_MEMORY)
    kernel = Kernel(machine, aged=aged, age_seed=age_seed, observer=observer)
    tm = TintMalloc(kernel=kernel)
    team = ColoredTeam.create(tm, list(config.cores), policy)
    memory = MemorySystem.for_machine(machine, observer=observer)
    return team, Engine(team, memory, observer=observer)


def _record_from_metrics(metrics, bench, policy, config, rep) -> RunRecord:
    llc = metrics.cache.get("llc")
    return RunRecord(
        bench=bench,
        policy=policy.label,
        config=config,
        rep=rep,
        runtime=metrics.runtime,
        parallel_runtime=metrics.parallel_runtime,
        serial_runtime=metrics.serial_runtime,
        total_idle=metrics.total_idle,
        thread_runtimes=tuple(metrics.thread_runtimes()),
        thread_idles=tuple(metrics.thread_idles()),
        remote_fraction=metrics.remote_fraction,
        row_hit_rate=metrics.dram.row_hit_rate if metrics.dram else 0.0,
        row_conflicts=metrics.dram.row_conflicts if metrics.dram else 0,
        llc_miss_rate=llc.miss_rate if llc else 0.0,
        dram_accesses=metrics.dram.accesses if metrics.dram else 0,
        faults=sum(t.faults for t in metrics.threads),
    )


def run_benchmark(
    bench: str,
    policy: Policy,
    config_name: str | ExperimentConfig,
    rep: int = 0,
    seed: int = 0,
    scale: float | None = None,
    machine: MachineSpec | None = None,
    profile: str = "full",
    observer: BaseObserver = NULL_OBSERVER,
    sanitize: str = "off",
) -> RunRecord:
    """Execute one benchmark run and summarise it.

    ``profile`` selects machine + workload scaling together ("full" or
    "scaled"); explicit ``machine``/``scale`` arguments override it.
    ``observer`` (a fresh :class:`repro.obs.Observer`) records a trace
    of the run; the default NullObserver records nothing.  ``sanitize``
    ("off"/"cheap"/"full") arms runtime invariant checking; "off" is
    free, the other levels run the traced path with checkers attached.

    ``policy`` may also be a structured
    :class:`~repro.alloc.custom.CustomPolicy` (the search genome's
    phenotype): its explicit per-thread assignments are applied verbatim,
    its ``aged`` flag boots the kernel on a fragmented free-list state
    seeded from ``seed + rep`` (a named policy always boots pristine;
    run-to-run error bars come from the workload's ``os_noise``), and
    its ``hugepages`` flag backs the workload heap with 2 MiB pages.

    ``config_name`` may also be an :class:`ExperimentConfig` object (any
    core pinning, e.g. from :func:`configs_for` on a non-Opteron
    preset); with an explicit ``machine``, names derived from its
    topology resolve too.
    """
    config = _resolve_config(config_name, machine)
    spec = get_workload(bench)
    if scale is None:
        scale = profile_scale(profile)
    if scale != 1.0:
        spec = spec.scaled(scale)
    if machine is None and profile != "full":
        machine = profile_machine(profile)
    observer = _sanitized_observer(sanitize, observer)
    team, engine = _fresh_environment(
        config, policy, machine, age_seed=seed + rep, observer=observer,
        aged=getattr(policy, "aged", False),
    )
    _arm_sanitizer(observer, engine)
    rng = RngStream(seed + rep, bench, config.name)
    program = build_spmd_program(
        spec, team, rng, huge=getattr(policy, "hugepages", False)
    )
    metrics = engine.run(program)
    return _record_from_metrics(metrics, bench, policy, config.name, rep)


def run_synthetic(
    policy: Policy,
    config_name: str | ExperimentConfig = "16_threads_4_nodes",
    rep: int = 0,
    spec: SyntheticSpec | None = None,
    profile: str = "full",
    observer: BaseObserver = NULL_OBSERVER,
    sanitize: str = "off",
) -> RunRecord:
    """Execute one synthetic-benchmark run (Fig. 10).

    Accepts structured :class:`~repro.alloc.custom.CustomPolicy` values
    like :func:`run_benchmark` (``aged``/``hugepages`` honoured), and
    :class:`ExperimentConfig` objects like :func:`run_benchmark`.  The
    default footprint derives from the machine's topology
    (:meth:`SyntheticSpec.for_machine`) — identical to the historic
    fixed formula on every 4-node preset.
    """
    config = _resolve_config(config_name, None)
    machine = profile_machine(profile) if profile != "full" else None
    if spec is None:
        spec = SyntheticSpec.for_machine(
            machine if machine is not None else opteron_6128(EXPERIMENT_MEMORY),
            profile_scale(profile),
        )
    observer = _sanitized_observer(sanitize, observer)
    team, engine = _fresh_environment(
        config, policy, machine, age_seed=rep, observer=observer,
        aged=getattr(policy, "aged", False),
    )
    _arm_sanitizer(observer, engine)
    program = build_synthetic_program(
        spec, team, huge=getattr(policy, "hugepages", False)
    )
    metrics = engine.run(program)
    return _record_from_metrics(metrics, spec.name, policy, config.name, rep)


# ---------------------------------------------------------------------- sweep
def sweep(
    benches: list[str],
    policies: list[Policy],
    configs: list[str],
    reps: int = 3,
    profile: str = "scaled",
    seed: int = 0,
    max_workers: int | None = None,
    trace_dir: str | None = None,
    sanitize: str = "off",
    cache=None,
) -> list[RunRecord]:
    """Run the full cross product; this powers Figs. 11-14 in one pass.

    A thin client of :mod:`repro.service`: every run becomes a
    :class:`~repro.service.JobSpec` submitted to a scheduler, which
    shards jobs over isolated worker processes when the host has
    multiple CPUs and retries worker crashes instead of aborting the
    sweep.  ``max_workers`` (default: one per CPU) is capped at the
    number of jobs; with one worker — ``max_workers=1``, a single job,
    an empty grid or a single-core host — the scheduler runs jobs
    inline, a serial fast path that never forks a worker process (fork
    + pickle overhead would only slow a single-core host down).  Results
    are returned in job submission order either way, bit-identical
    between the serial and pooled paths.

    ``cache`` (a path or an open :class:`repro.service.ResultStore`)
    enables content-addressed result reuse: a job whose digest is
    already stored returns the persisted record without simulating.
    ``trace_dir`` enables per-run tracing: each job records its own
    :class:`repro.obs.Observer` inside the worker and exports one
    Perfetto trace file into the directory (traced jobs are
    ``force_run``: they always re-run so the side-effect files are
    produced).  ``sanitize`` arms invariant checking in every worker
    (levels as in :func:`run_benchmark`).
    """
    # Imported lazily: repro.service sits above the experiments layer
    # (its workers call back into run_benchmark).
    from repro.service import JobSpec, ServiceClient

    specs = [
        JobSpec(bench=b, policy=p.value, config=c, rep=r, profile=profile,
                seed=seed, sanitize=sanitize, trace_dir=trace_dir,
                force_run=trace_dir is not None)
        for b in benches
        for c in configs
        for p in policies
        for r in range(reps)
    ]
    workers = max(1, min(len(specs), max_workers or os.cpu_count() or 1))
    executor = "inline" if workers == 1 else "process"
    with ServiceClient(
        store=cache, shards=workers, executor=executor
    ) as client:
        handles = [client.submit(s) for s in specs]
        return client.gather(handles)
