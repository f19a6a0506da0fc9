"""Generic SPMD workload generator.

A workload is described declaratively by :class:`SpmdSpec`;
:func:`build_spmd_program` lays the data out on a team's heap and emits
the :class:`~repro.sim.barrier.Program` of traces.

Layout, mirroring the common OpenMP idiom the paper discusses:

* the master ``malloc``\\ s one big array; thread *i* works on slice *i*
  (so the *data partition across threads matches the per-thread first
  touch allocation policy* — the paper's condition (3));
* a shared region (input data / shared structures) is allocated and
  first-touched entirely by the master;
* ``master_init_fraction`` of each partition is also first-touched by the
  master during serial init (the NUMA-hostile part of real codes).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.session import ColoredTeam
from repro.sim.barrier import Program, Section
from repro.sim.trace import Trace
from repro.util.rng import RngStream

#: Access patterns for compute sections.
PATTERNS = ("stream", "strided", "random")


@dataclass(frozen=True)
class SpmdSpec:
    """Declarative description of one SPMD benchmark.

    Attributes:
        name: benchmark name.
        per_thread_bytes: private partition size per thread.
        shared_bytes: master-allocated shared region size.
        master_init_fraction: fraction of each partition first-touched by
            the master during serial init (0 = perfectly NUMA-friendly).
        passes: reuse passes over the partition per compute section.
        compute_sections: number of parallel compute sections (each ends
            with an implicit barrier).
        pattern: "stream" (sequential sweeps, row-buffer friendly),
            "strided" (large prime stride), or "random" (permuted chunk
            traversal: chunks of ``chunk_lines`` consecutive lines visited
            in random order — pointer-chasing across an irregular layout
            with realistic within-node spatial locality).
        chunk_lines: spatial-locality grain of the "random" pattern
            (1 = fully random line order).
        think_ns: modelled compute per access — low = memory-intensive.
        write_fraction: fraction of accesses that are writes.
        shared_fraction: fraction of compute accesses hitting the shared
            region instead of the private partition.
        serial_accesses: master accesses (over shared data) per serial
            section between compute sections.
        serial_think_ns: think time per serial access (sets the serial
            fraction of the benchmark, cf. blackscholes).
        init_think_ns: think time per init access.  Init phases touch
            one line per page: first-touch placement, the property init
            exists for, is the same as touching every line, and the
            trace is 32x shorter.
        os_noise: relative jitter applied to each thread's per-section
            think time (uniform in ±os_noise), modelling OS noise and
            microarchitectural variation between repetitions — the source
            of the paper's run-to-run error bars.
    """

    name: str
    per_thread_bytes: int
    shared_bytes: int
    master_init_fraction: float = 0.2
    passes: int = 3
    compute_sections: int = 2
    pattern: str = "stream"
    chunk_lines: int = 1
    think_ns: float = 4.0
    write_fraction: float = 0.35
    shared_fraction: float = 0.05
    serial_accesses: int = 2000
    serial_think_ns: float = 20.0
    init_think_ns: float = 2.0
    os_noise: float = 0.05

    def __post_init__(self) -> None:
        if self.pattern not in PATTERNS:
            raise ValueError(f"unknown pattern {self.pattern!r}")
        if not 0.0 <= self.master_init_fraction <= 1.0:
            raise ValueError("master_init_fraction must be in [0, 1]")
        if not 0.0 <= self.shared_fraction < 1.0:
            raise ValueError("shared_fraction must be in [0, 1)")
        if not 0.0 <= self.write_fraction <= 1.0:
            raise ValueError("write_fraction must be in [0, 1]")
        if self.per_thread_bytes <= 0 or self.shared_bytes < 0:
            raise ValueError("sizes must be positive")

    def scaled(self, factor: float) -> "SpmdSpec":
        """Scale footprints by ``factor`` (speed/size knob for tests)."""
        return replace(
            self,
            per_thread_bytes=max(4096, int(self.per_thread_bytes * factor)),
            shared_bytes=int(self.shared_bytes * factor),
            serial_accesses=max(1, int(self.serial_accesses * factor)),
        )


@dataclass
class _Layout:
    """Virtual-address layout of one built workload."""

    partition_base: list[int] = field(default_factory=list)
    partition_lines: int = 0
    shared_base: int = 0
    shared_lines: int = 0
    line_bytes: int = 0
    init_stride: int = 1  # lines per init touch: one touch per page


def build_spmd_program(
    spec: SpmdSpec,
    team: ColoredTeam,
    rng: RngStream,
    huge: bool = False,
) -> Program:
    """Materialise the workload for a team: heap layout + trace program.

    ``huge`` backs the array and shared regions with 2 MiB pages, which
    bypass coloring entirely (paper §III-C) — the knob the policy-search
    space uses to let the optimizer weigh row-buffer locality against
    color isolation.
    """
    nthreads = team.nthreads
    mapping = team.tm.kernel.mapping
    line = mapping.line_bytes
    master = team.master

    layout = _Layout(line_bytes=line,
                     init_stride=max(1, mapping.page_bytes // line))
    layout.partition_lines = max(1, spec.per_thread_bytes // line)
    part_bytes = layout.partition_lines * line
    array_va = master.malloc(
        part_bytes * nthreads, label=f"{spec.name}:array", huge=huge
    )
    layout.partition_base = [array_va + i * part_bytes for i in range(nthreads)]
    layout.shared_lines = max(1, spec.shared_bytes // line) if spec.shared_bytes else 0
    if layout.shared_lines:
        layout.shared_base = master.malloc(
            layout.shared_lines * line, label=f"{spec.name}:shared", huge=huge
        )

    # Input loading precedes the color directives in real runs (the paper
    # adds its mmap() one-liner to the *init code*, after the input has
    # been read): the shared region and any master-initialised partition
    # slices are faulted in UNCOLORED, under the default buddy policy,
    # regardless of the experiment's coloring.  Emulate by clearing the
    # master's colors around the first touch of that data.
    saved_mem = list(master.task.mem_colors)
    saved_llc = list(master.task.llc_colors)
    saved_flags = (master.task.using_bank, master.task.using_llc)
    master.clear_colors()
    if layout.shared_lines:
        master.touch_range(layout.shared_base, layout.shared_lines * line)
    master_lines = int(layout.partition_lines * spec.master_init_fraction)
    if master_lines:
        for i in range(nthreads):
            master.touch_range(layout.partition_base[i], master_lines * line)
    master.task.mem_colors = saved_mem
    master.task.llc_colors = saved_llc
    master.task.using_bank, master.task.using_llc = saved_flags

    sections: list[Section] = []
    sections.append(_serial_init_section(spec, layout, nthreads))
    sections.append(_parallel_init_section(spec, layout, nthreads))
    for s in range(spec.compute_sections):
        sections.append(
            _compute_section(spec, layout, nthreads, rng.child("compute", s), s)
        )
        if spec.serial_accesses and s < spec.compute_sections - 1:
            sections.append(
                _serial_section(spec, layout, rng.child("serial", s), s)
            )

    return Program(
        sections=sections,
        nthreads=nthreads,
        name=spec.name,
        metadata={"spec": spec},
    )


# ---------------------------------------------------------------------- init
def _serial_init_section(spec: SpmdSpec, layout: _Layout, nthreads: int) -> Section:
    """Master streams over the shared region and the master-init slice of
    every partition (all first touches -> master's node/colors)."""
    step = layout.init_stride
    pieces: list[np.ndarray] = []
    if layout.shared_lines:
        pieces.append(
            layout.shared_base
            + np.arange(0, layout.shared_lines, step, dtype=np.int64)
            * layout.line_bytes
        )
    master_lines = int(layout.partition_lines * spec.master_init_fraction)
    for i in range(nthreads):
        if master_lines:
            pieces.append(
                layout.partition_base[i]
                + np.arange(0, master_lines, step, dtype=np.int64)
                * layout.line_bytes
            )
    vaddrs = (
        np.concatenate(pieces) if pieces else np.empty(0, dtype=np.int64)
    )
    trace = Trace(
        vaddrs=vaddrs,
        writes=np.ones(len(vaddrs), dtype=bool),
        think_ns=spec.init_think_ns,
        label="serial-init",
    )
    return Section(kind="serial", traces={0: trace}, label="serial-init")


def _parallel_init_section(
    spec: SpmdSpec, layout: _Layout, nthreads: int
) -> Section:
    """Each thread first-touches the rest of its partition (streaming)."""
    master_lines = int(layout.partition_lines * spec.master_init_fraction)
    traces = {}
    for i in range(nthreads):
        lines = np.arange(
            master_lines, layout.partition_lines, layout.init_stride,
            dtype=np.int64,
        )
        vaddrs = layout.partition_base[i] + lines * layout.line_bytes
        traces[i] = Trace(
            vaddrs=vaddrs,
            writes=np.ones(len(vaddrs), dtype=bool),
            think_ns=spec.init_think_ns,
            label=f"init[{i}]",
        )
    return Section(kind="parallel", traces=traces, label="parallel-init")


# ---------------------------------------------------------------------- compute
def _pattern_lines(
    spec: SpmdSpec, nlines: int, rng: RngStream, section_index: int
) -> np.ndarray:
    """Line-index sequence of one pass over a partition."""
    if spec.pattern == "stream":
        # Same-direction sweep every pass, like stencil time steps: with a
        # working set beyond cache capacity, LRU gets no reuse — streaming
        # codes are DRAM-bound under any allocator, as on real hardware.
        return np.arange(nlines, dtype=np.int64)
    if spec.pattern == "strided":
        # Large stride co-prime with nlines covers every line non-sequentially.
        stride = 17
        while nlines % stride == 0:
            stride += 2
        return (np.arange(nlines, dtype=np.int64) * stride) % nlines
    # random: permuted chunk traversal — every line visited once per pass,
    # chunks of `chunk_lines` consecutive lines, chunk order random.
    chunk = max(1, spec.chunk_lines)
    nchunks = max(1, nlines // chunk)
    order = rng.permutation(nchunks).astype(np.int64)
    idx = (order[:, None] * chunk + np.arange(chunk, dtype=np.int64)[None, :])
    idx = idx.reshape(-1)
    return idx[idx < nlines]


def _compute_section(
    spec: SpmdSpec,
    layout: _Layout,
    nthreads: int,
    rng: RngStream,
    section_index: int,
) -> Section:
    traces = {}
    for i in range(nthreads):
        trng = rng.child("thread", i)
        passes = [
            _pattern_lines(spec, layout.partition_lines, trng.child("pass", p),
                           section_index + p)
            for p in range(spec.passes)
        ]
        lines = np.concatenate(passes)
        vaddrs = layout.partition_base[i] + lines * layout.line_bytes
        n = len(vaddrs)
        if spec.shared_fraction and layout.shared_lines:
            mask = trng.random(n) < spec.shared_fraction
            shared = (
                layout.shared_base
                + trng.integers(0, layout.shared_lines, size=int(mask.sum()),
                                dtype=np.int64)
                * layout.line_bytes
            )
            vaddrs = vaddrs.copy()
            vaddrs[mask] = shared
        writes = trng.random(n) < spec.write_fraction
        # OS-noise jitter: each thread's section runs marginally faster or
        # slower, varying with the rep seed (run-to-run error bars).
        jitter = 1.0 + spec.os_noise * (2.0 * trng.random() - 1.0)
        traces[i] = Trace(
            vaddrs=vaddrs,
            writes=writes,
            think_ns=spec.think_ns * jitter,
            label=f"compute[{section_index}][{i}]",
        )
    return Section(
        kind="parallel", traces=traces, label=f"compute[{section_index}]"
    )


def _serial_section(
    spec: SpmdSpec, layout: _Layout, rng: RngStream, section_index: int
) -> Section:
    """Master-only work between parallel sections (shared-data accesses)."""
    n = spec.serial_accesses
    if layout.shared_lines:
        lines = rng.integers(0, layout.shared_lines, size=n, dtype=np.int64)
        vaddrs = layout.shared_base + lines * layout.line_bytes
    else:
        lines = rng.integers(0, layout.partition_lines, size=n, dtype=np.int64)
        vaddrs = layout.partition_base[0] + lines * layout.line_bytes
    trace = Trace(
        vaddrs=vaddrs,
        writes=rng.random(n) < spec.write_fraction,
        think_ns=spec.serial_think_ns,
        label=f"serial[{section_index}]",
    )
    return Section(kind="serial", traces={0: trace}, label=f"serial[{section_index}]")
