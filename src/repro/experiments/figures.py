"""Builders for the paper's figures (10-14) from run records.

Every figure is a plain data structure (dicts of
:class:`~repro.analysis.stats.Aggregate`) plus a renderer to ASCII via
:mod:`repro.analysis.charts`, so the benchmark harness can both assert on
shapes and print the figure.

The paper's comparison set per benchmark/configuration (§V-B): standard
buddy (the normalisation base), prior work BPM, TintMalloc's MEM+LLC, and
the best of the remaining TintMalloc variants (MEM, LLC, MEM+LLC(part),
LLC+MEM(part)).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.alloc.policies import TINT_VARIANTS, Policy
from repro.analysis.charts import bar_chart, grouped_bar_chart, series_table
from repro.analysis.stats import Aggregate, aggregate
from repro.experiments.runner import RunRecord

#: Figure-10 policy set, in the paper's order.
FIG10_POLICIES = (Policy.BUDDY, Policy.LLC, Policy.MEM, Policy.MEM_LLC)

#: Figure 11-14 bar set (best-other computed separately).
MAIN_POLICIES = (Policy.BUDDY, Policy.BPM, Policy.MEM_LLC)


def _index(records: Sequence[RunRecord]):
    """(bench, config, policy) -> list of records (one per rep)."""
    idx: dict[tuple[str, str, str], list[RunRecord]] = defaultdict(list)
    for r in records:
        idx[(r.bench, r.config, r.policy)].append(r)
    return idx


def _agg(
    idx, bench: str, config: str, policy: str,
    metric: Callable[[RunRecord], float],
) -> Aggregate | None:
    recs = idx.get((bench, config, policy))
    if not recs:
        return None
    return aggregate([metric(r) for r in recs])


def best_other_policy(
    idx, bench: str, config: str,
    metric: Callable[[RunRecord], float] = lambda r: r.runtime,
) -> str | None:
    """The paper's "best result from MEM, LLC, MEM+LLC(part), LLC+MEM(part)"
    — chosen by mean benchmark runtime."""
    best: tuple[float, str] | None = None
    for policy in TINT_VARIANTS:
        agg = _agg(idx, bench, config, policy.label, metric)
        if agg is None:
            continue
        if best is None or agg.mean < best[0]:
            best = (agg.mean, policy.label)
    return best[1] if best else None


# ------------------------------------------------------------------- figure 10
@dataclass
class Fig10:
    """Synthetic benchmark execution time per coloring policy."""

    absolute: dict[str, Aggregate]  # policy label -> runtime (ns)
    normalized: dict[str, Aggregate]  # vs buddy

    def reduction_vs_buddy(self) -> float:
        """MEM/LLC's fractional runtime reduction (paper: up to 17 %)."""
        return 1.0 - self.normalized[Policy.MEM_LLC.label].mean

    def render(self) -> str:
        return bar_chart(
            "Fig. 10 — synthetic benchmark, normalized execution time "
            "(buddy = 1.0)",
            self.normalized,
        )


def fig10(records: Sequence[RunRecord]) -> Fig10:
    """Build Fig. 10 from synthetic-benchmark run records."""
    by_policy: dict[str, list[RunRecord]] = defaultdict(list)
    for r in records:
        by_policy[r.policy].append(r)
    absolute = {
        p.label: aggregate([r.runtime for r in by_policy[p.label]])
        for p in FIG10_POLICIES
        if p.label in by_policy
    }
    if Policy.BUDDY.label not in absolute:
        raise ValueError("fig10 needs buddy runs as the normalisation base")
    base = absolute[Policy.BUDDY.label].mean
    normalized = {k: v.scaled(1.0 / base) for k, v in absolute.items()}
    return Fig10(absolute=absolute, normalized=normalized)


# --------------------------------------------------------------- figures 11/12
@dataclass
class GroupedFigure:
    """Figs. 11 and 12: normalized metric per benchmark x policy, per config."""

    title: str
    #: config -> bench -> policy label -> normalized Aggregate
    data: dict[str, dict[str, dict[str, Aggregate]]]
    #: config -> bench -> label of the best "other" coloring variant
    best_other: dict[str, dict[str, str]] = field(default_factory=dict)

    def render(self, config: str) -> str:
        return grouped_bar_chart(
            f"{self.title} — {config} (buddy = 1.0)", self.data[config]
        )


def _grouped_figure(
    records: Sequence[RunRecord],
    metric: Callable[[RunRecord], float],
    title: str,
) -> GroupedFigure:
    idx = _index(records)
    configs = sorted({r.config for r in records})
    benches = list(dict.fromkeys(r.bench for r in records))
    fig = GroupedFigure(title=title, data={})
    for config in configs:
        fig.data[config] = {}
        fig.best_other[config] = {}
        for bench in benches:
            base_agg = _agg(idx, bench, config, Policy.BUDDY.label, metric)
            if base_agg is None or base_agg.mean <= 0:
                continue
            rows: dict[str, Aggregate] = {}
            for policy in MAIN_POLICIES:
                agg = _agg(idx, bench, config, policy.label, metric)
                if agg is not None:
                    rows[policy.label] = agg.scaled(1.0 / base_agg.mean)
            other = best_other_policy(idx, bench, config)
            if other is not None:
                agg = _agg(idx, bench, config, other, metric)
                rows[f"best-other ({other})"] = agg.scaled(1.0 / base_agg.mean)
                fig.best_other[config][bench] = other
            fig.data[config][bench] = rows
    return fig


def fig11(records: Sequence[RunRecord]) -> GroupedFigure:
    """Normalized benchmark runtime (Fig. 11)."""
    return _grouped_figure(
        records, lambda r: r.runtime, "Fig. 11 — normalized benchmark runtime"
    )


def fig12(records: Sequence[RunRecord]) -> GroupedFigure:
    """Normalized total idle time at barriers (Fig. 12)."""
    return _grouped_figure(
        records, lambda r: r.total_idle, "Fig. 12 — normalized total idle time"
    )


# --------------------------------------------------------------- figures 13/14
@dataclass
class PerThreadFigure:
    """Figs. 13 and 14: per-thread metric under each policy."""

    title: str
    #: bench -> policy label -> per-thread means (normalized to buddy mean)
    data: dict[str, dict[str, list[float]]]

    def render(self, bench: str) -> str:
        rows = self.data[bench]
        nthreads = len(next(iter(rows.values())))
        return series_table(
            f"{self.title} — {bench}",
            [f"t{i}" for i in range(nthreads)],
            rows,
        )

    def spread(self, bench: str, policy: str) -> float:
        values = self.data[bench][policy]
        return max(values) - min(values)

    def max_value(self, bench: str, policy: str) -> float:
        return max(self.data[bench][policy])


def _per_thread_figure(
    records: Sequence[RunRecord],
    config: str,
    values_of: Callable[[RunRecord], Sequence[float]],
    title: str,
) -> PerThreadFigure:
    idx = _index(records)
    benches = list(dict.fromkeys(r.bench for r in records))
    fig = PerThreadFigure(title=title, data={})
    for bench in benches:
        base_recs = idx.get((bench, config, Policy.BUDDY.label))
        if not base_recs:
            continue
        nthreads = len(values_of(base_recs[0]))
        base_mean = sum(
            sum(values_of(r)) / nthreads for r in base_recs
        ) / len(base_recs)
        if base_mean <= 0:
            base_mean = 1.0
        rows: dict[str, list[float]] = {}
        policies = [p.label for p in MAIN_POLICIES]
        other = best_other_policy(idx, bench, config)
        if other and other not in policies:
            policies.append(other)
        for policy in policies:
            recs = idx.get((bench, config, policy))
            if not recs:
                continue
            per_thread = [
                sum(values_of(r)[t] for r in recs) / len(recs) / base_mean
                for t in range(nthreads)
            ]
            rows[policy] = per_thread
        fig.data[bench] = rows
    return fig


def fig13(records: Sequence[RunRecord], config: str) -> PerThreadFigure:
    """Per-thread parallel runtime (Fig. 13), normalized to buddy's mean."""
    return _per_thread_figure(
        records, config, lambda r: r.thread_runtimes,
        f"Fig. 13 — per-thread runtime ({config})",
    )


def fig14(records: Sequence[RunRecord], config: str) -> PerThreadFigure:
    """Per-thread idle time (Fig. 14), normalized to buddy's mean."""
    return _per_thread_figure(
        records, config, lambda r: r.thread_idles,
        f"Fig. 14 — per-thread idle time ({config})",
    )
