"""Differential oracle: fast vs reference vs traced paths vs analytic model.

The engine has two replay loops that must be bit-identical: the planned,
batched ``_run_section_fast`` and ``_run_section_reference``, which also
carries the tracing hooks when an observer is enabled.  The oracle runs
the *same* program in three modes — fast, reference, and traced (the
reference loop under a recording observer) — on fresh machines,
snapshots the full :class:`~repro.sim.metrics.RunMetrics` tree of each,
and reports the first divergent field with every mode's value — the
drift detector for future hot-path optimisations.

On top of the cross-path diff, :func:`analytic_violations` checks the
reference run against the model's closed-form identities (runtime
decomposition, counter conservation down the memory hierarchy), so a bug
that corrupts *all three* modes identically is still caught when it
breaks an identity.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.obs.observer import NULL_OBSERVER, BaseObserver, Observer
from repro.sanitize.base import SanitizeViolation
from repro.sim.metrics import RunMetrics

#: Engine modes the oracle compares.
MODES = ("fast", "reference", "traced")

#: Relative tolerance of the float identities in the analytic model
#: (sums of the same floats in a different association order).
ANALYTIC_REL_TOL = 1e-9

#: Divergent fields a report lists in full (the total is always counted).
MAX_FIELDS = 16


def metrics_snapshot(metrics: RunMetrics) -> dict:
    """The full metrics tree as plain, exactly comparable values."""
    return {
        "runtime": metrics.runtime,
        "barriers": metrics.barriers,
        "summary": metrics.summary(),
        "threads": [dataclasses.asdict(t) for t in metrics.threads],
        "sections": [dataclasses.asdict(s) for s in metrics.sections],
        "dram": dataclasses.asdict(metrics.dram) if metrics.dram else None,
        "cache": {
            name: (lvl.hits, lvl.misses)
            for name, lvl in metrics.cache.items()
        },
    }


def flatten_tree(tree: Any, prefix: str = "") -> dict[str, Any]:
    """Flatten nested dicts/lists into ``{"dram.accesses": 42, ...}``.

    Leaf order follows depth-first tree order, so "first divergent field"
    is well-defined and stable.
    """
    out: dict[str, Any] = {}
    if isinstance(tree, dict):
        for key, value in tree.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            out.update(flatten_tree(value, path))
    elif isinstance(tree, (list, tuple)):
        for i, value in enumerate(tree):
            out.update(flatten_tree(value, f"{prefix}[{i}]"))
    else:
        out[prefix] = tree
    return out


@dataclass(frozen=True)
class FieldDiff:
    """One divergent leaf of the metrics tree."""

    path: str
    #: mode -> value at this path ("<missing>" when the leaf is absent).
    values: dict[str, Any]


@dataclass
class DiffReport:
    """Structured outcome of one differential run."""

    modes: tuple[str, ...]
    equal: bool
    #: first divergent field in tree order (None when equal).
    first: FieldDiff | None
    #: leading divergent fields (capped; see total_divergent).
    divergent: list[FieldDiff] = field(default_factory=list)
    total_divergent: int = 0
    #: analytic-model identity violations of the reference run.
    analytic: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """No cross-path divergence and no analytic violation."""
        return self.equal and not self.analytic

    def raise_on_divergence(self) -> None:
        """Raise :class:`SanitizeViolation` unless the report is clean."""
        if not self.equal:
            assert self.first is not None
            raise SanitizeViolation(
                "diff", "engine-divergence",
                f"paths diverge at {self.first.path}: {self.first.values} "
                f"({self.total_divergent} fields total)",
                {"first": self.first, "total": self.total_divergent},
            )
        if self.analytic:
            raise SanitizeViolation(
                "diff", "analytic-violation", "; ".join(self.analytic)
            )

    def describe(self) -> str:
        """Human-readable multi-line report."""
        if self.clean:
            return f"paths {self.modes} agree; analytic model satisfied"
        lines = []
        if not self.equal:
            lines.append(
                f"{self.total_divergent} divergent fields across {self.modes}"
            )
            for d in self.divergent:
                lines.append(f"  {d.path}: {d.values}")
        for violation in self.analytic:
            lines.append(f"  analytic: {violation}")
        return "\n".join(lines)


def diff_trees(
    snapshots: dict[str, dict],
) -> tuple[FieldDiff | None, list[FieldDiff], int]:
    """Compare snapshot trees leaf by leaf.

    Returns ``(first_divergence, leading_divergences, total_count)``.
    """
    flats = {mode: flatten_tree(snap) for mode, snap in snapshots.items()}
    base = next(iter(flats))
    paths = list(flats[base])
    seen = set(paths)
    for flat in flats.values():
        paths.extend(p for p in flat if p not in seen and not seen.add(p))
    divergent: list[FieldDiff] = []
    total = 0
    first: FieldDiff | None = None
    for path in paths:
        values = {mode: flat.get(path, "<missing>") for mode, flat in flats.items()}
        ref = values[base]
        if all(v == ref for v in values.values()):
            continue
        total += 1
        diff = FieldDiff(path, values)
        if first is None:
            first = diff
        if len(divergent) < MAX_FIELDS:
            divergent.append(diff)
    return first, divergent, total


# ---------------------------------------------------------------- analytic
def _close(a: float, b: float) -> bool:
    return abs(a - b) <= ANALYTIC_REL_TOL * max(1.0, abs(a), abs(b))


def analytic_violations(metrics: RunMetrics) -> list[str]:
    """Closed-form identities every well-formed run must satisfy.

    Integer identities are exact; float identities allow re-association
    rounding (:data:`ANALYTIC_REL_TOL`).  Returns violation descriptions
    (empty list = model satisfied).
    """
    out: list[str] = []
    if not _close(metrics.runtime, metrics.serial_runtime + metrics.parallel_runtime):
        out.append(
            f"runtime {metrics.runtime} != serial {metrics.serial_runtime} "
            f"+ parallel {metrics.parallel_runtime}"
        )
    parallel_sections = sum(1 for s in metrics.sections if s.kind == "parallel")
    if metrics.barriers != parallel_sections:
        out.append(
            f"barriers {metrics.barriers} != parallel sections "
            f"{parallel_sections}"
        )
    if not _close(metrics.total_idle, sum(s.idle for s in metrics.sections)):
        out.append("total_idle != sum of section idle")
    for s in metrics.sections:
        if s.end < s.start:
            out.append(f"section {s.label!r} ends before it starts")
    if metrics.total_faults != sum(s.faults for s in metrics.sections):
        out.append("thread faults != section faults")

    dram = metrics.dram
    if dram is not None:
        kinds = dram.row_hits + dram.row_misses + dram.row_conflicts
        if kinds != dram.accesses:
            out.append(
                f"row hits+misses+conflicts {kinds} != accesses {dram.accesses}"
            )
        if dram.local_accesses + dram.remote_accesses != dram.accesses:
            out.append("local + remote != DRAM accesses")
        if sum(dram.per_node_accesses.values()) != dram.accesses:
            out.append("per-node accesses do not sum to DRAM accesses")
        waits = dram.wait_link + dram.wait_ctrl + dram.wait_chan + dram.wait_bank
        if not _close(waits, dram.total_queue_wait):
            out.append("queue-wait components do not sum to total_queue_wait")
        if sum(t.dram_accesses for t in metrics.threads) != dram.accesses:
            out.append("thread DRAM accesses != DRAM system accesses")
        if sum(t.remote_accesses for t in metrics.threads) != dram.remote_accesses:
            out.append("thread remote accesses != DRAM remote accesses")
        if sum(t.row_conflicts for t in metrics.threads) != dram.row_conflicts:
            out.append("thread row conflicts != DRAM row conflicts")

    cache = metrics.cache
    if cache:
        l1, l2, llc = cache["l1"], cache["l2"], cache["llc"]
        if sum(t.accesses for t in metrics.threads) != l1.hits + l1.misses:
            out.append("thread accesses != L1 lookups")
        if l1.misses != l2.hits + l2.misses:
            out.append("L1 misses != L2 lookups")
        if l2.misses != llc.hits + llc.misses:
            out.append("L2 misses != LLC lookups")
        if dram is not None and llc.misses != dram.accesses:
            out.append("LLC misses != DRAM accesses")
    return out


# ---------------------------------------------------------------- runners
#: builder contract: ``builder(observer) -> (engine, program)`` building a
#: *fresh* machine wired to the observer (counters register at
#: construction, so the observer cannot be swapped in afterwards).
EnvBuilder = Callable[[BaseObserver], tuple[Any, Any]]


def differential_run(
    builder: EnvBuilder,
    include_traced: bool = True,
) -> DiffReport:
    """Run one program through every engine path and diff the outcomes."""
    snapshots: dict[str, dict] = {}
    reference_metrics: RunMetrics | None = None
    modes = MODES if include_traced else MODES[:2]
    for mode in modes:
        observer: BaseObserver = (
            Observer() if mode == "traced" else NULL_OBSERVER
        )
        engine, program = builder(observer)
        engine.fast_path = mode == "fast"
        metrics = engine.run(program)
        snapshots[mode] = metrics_snapshot(metrics)
        if mode == "reference":
            reference_metrics = metrics
    first, divergent, total = diff_trees(snapshots)
    assert reference_metrics is not None
    return DiffReport(
        modes=tuple(modes),
        equal=total == 0,
        first=first,
        divergent=divergent,
        total_divergent=total,
        analytic=analytic_violations(reference_metrics),
    )
