"""Seeded chaos campaigns over the job service.

A *campaign* runs many randomly generated :class:`FaultPlan`\\ s against
a fixed set of small jobs and checks the service's degradation
invariant on every one:

    every job either completes with a record **bit-identical** to the
    fault-free baseline, or raises a **typed** :class:`ServiceError`,
    within its deadline — never a hang, never silent data loss.

Plan generation is a pure function of ``(seed, case index)``, so a
failing case replays from just those two integers — and because fault
*decisions* are themselves pure functions of the plan, the serialized
plan JSON alone reproduces the identical failure in a fresh process
(what the CI artifact upload relies on).

``tools/chaos_sim.py`` is the CLI; tests drive :func:`run_campaign` and
:func:`run_case` directly.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass

from repro.faultline.hooks import armed
from repro.faultline.plan import SITES, FaultPlan, FaultRule

#: Every site in :data:`~repro.faultline.plan.SITES` except
#: ``worker.hang``: a hang only resolves when the job's ``timeout_s``
#: reaps the child, so each firing would stall a case for the full
#: timeout, and the inline executor ignores it.  Dedicated tests cover
#: it instead.
CAMPAIGN_SITES = tuple(site for site in SITES if site != "worker.hang")

#: Per-case wall-clock deadline: generous next to the jobs (mini-profile
#: synthetic runs take ~0.1 s each) so only a genuine hang trips it.
CASE_DEADLINE_S = 60.0


def campaign_specs() -> list:
    """The fixed job set every campaign case runs (tiny, varied)."""
    from repro.service.jobs import JobSpec

    return [
        JobSpec(kind="synthetic", bench="synthetic", policy=policy,
                config="4_threads_4_nodes", profile="mini", rep=rep,
                timeout_s=10.0, max_retries=2)
        for policy in ("buddy", "mem+llc")
        for rep in (0, 1)
    ]


def random_plan(seed: int, index: int) -> FaultPlan:
    """Deterministically generate case ``index`` of campaign ``seed``."""
    rng = random.Random((seed << 20) ^ index)
    rules = []
    for site in rng.sample(CAMPAIGN_SITES, k=rng.randint(1, 3)):
        rules.append(FaultRule(
            site=site,
            probability=rng.choice((0.25, 0.5, 0.75, 1.0)),
            max_fires=rng.choice((1, 2, 4, None)),
            arg=0.01 if site == "worker.slow_start" else None,
        ))
    return FaultPlan(seed=rng.getrandbits(32), rules=tuple(rules))


def canonical(record: dict) -> str:
    """Canonical JSON for bit-identity comparison of records."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def baseline_records(specs, executor: str = "inline") -> dict[str, str]:
    """Fault-free reference results, digest -> canonical record JSON."""
    results = _run_specs(specs, executor)
    out = {}
    for digest, (kind, payload) in results.items():
        if kind != "ok":
            raise RuntimeError(f"baseline run failed for {digest}: {payload}")
        out[digest] = canonical(payload)
    return out


def _run_specs(specs, executor: str) -> dict[str, tuple[str, object]]:
    """Run all specs on a fresh scheduler; digest -> (outcome, payload).

    Outcome is ``"ok"`` (payload = record), ``"error"`` (payload = the
    typed :class:`ServiceError`), ``"untyped"`` (payload = any other
    exception — an invariant violation), or ``"hang"`` (deadline hit).
    """
    from repro.service.scheduler import Scheduler, ServiceError
    from repro.service.store import ResultStore

    out: dict[str, tuple[str, object]] = {}
    with Scheduler(store=ResultStore(), shards=2, executor=executor) as sched:
        handles = [sched.submit(spec) for spec in specs]
        deadline = time.monotonic() + CASE_DEADLINE_S
        for handle in handles:
            remaining = max(0.0, deadline - time.monotonic())
            if not handle.wait(remaining):
                out[handle.digest] = (
                    "hang", f"not done after {CASE_DEADLINE_S}s"
                )
                continue
            try:
                out[handle.digest] = ("ok", handle.result(timeout=0))
            except ServiceError as exc:
                out[handle.digest] = ("error", exc)
            except Exception as exc:  # noqa: BLE001 - the invariant breach
                out[handle.digest] = ("untyped", exc)
    return out


def run_case(
    plan: FaultPlan, specs=None, baseline=None, executor: str = "inline"
) -> str | None:
    """Run one plan against the campaign jobs; returns a violation or None.

    The invariant checked per job: terminal within the deadline, and
    either a record bit-identical to the fault-free baseline or a typed
    ``ServiceError``.
    """
    if specs is None:
        specs = campaign_specs()
    if baseline is None:
        baseline = baseline_records(specs, executor)
    with armed(plan):
        results = _run_specs(specs, executor)
    for spec in specs:
        digest = spec.digest()
        kind, payload = results[digest]
        if kind == "hang":
            return f"job {spec.label} hung: {payload}"
        if kind == "untyped":
            return (f"job {spec.label} raised an untyped error: "
                    f"{type(payload).__name__}: {payload}")
        if kind == "ok" and canonical(payload) != baseline[digest]:
            return (f"job {spec.label} completed with a record that is "
                    "not bit-identical to the fault-free baseline")
    return None


@dataclass(frozen=True)
class CampaignFailure:
    """One invariant violation: the case, its plan, and what broke."""

    case_index: int
    plan: FaultPlan
    detail: str


@dataclass(frozen=True)
class CampaignResult:
    """Outcome of :func:`run_campaign`."""

    ok: bool
    cases_run: int
    elapsed_s: float
    seed: int
    failure: CampaignFailure | None = None


def run_campaign(
    budget_s: float = 30.0,
    seed: int = 0,
    max_cases: int | None = None,
    executor: str = "inline",
    on_case=None,
) -> CampaignResult:
    """Run random fault plans until the budget runs out or one fails.

    Stops at the first invariant violation and reports the (seed, case
    index, plan) triple that produced it.
    """
    specs = campaign_specs()
    baseline = baseline_records(specs, executor)
    start = time.monotonic()
    index = 0
    while True:
        elapsed = time.monotonic() - start
        if elapsed >= budget_s:
            break
        if max_cases is not None and index >= max_cases:
            break
        plan = random_plan(seed, index)
        if on_case is not None:
            on_case(index, plan)
        detail = run_case(plan, specs, baseline, executor)
        if detail is not None:
            return CampaignResult(
                ok=False, cases_run=index + 1,
                elapsed_s=time.monotonic() - start, seed=seed,
                failure=CampaignFailure(index, plan, detail),
            )
        index += 1
    return CampaignResult(
        ok=True, cases_run=index, elapsed_s=time.monotonic() - start,
        seed=seed,
    )
