"""repro.faultline: deterministic fault injection for the job service.

A :class:`FaultPlan` — a seed plus typed :class:`FaultRule` schedules —
arms process-global hook points across the service layer (result
stores, scheduler attempts, worker processes) and the kernel underneath it
(frame exhaustion, mmap failure).  Decisions are a pure function of
(seed, site, scope), so any failing campaign replays bit-for-bit from
the serialized plan in a fresh process.

The default :data:`NO_FAULTS` plan is zero-overhead and
behaviour-identical to never arming anything, the same contract
``--sanitize off`` keeps.  Typical use::

    from repro.faultline import FaultPlan, FaultRule, armed

    plan = FaultPlan(seed=7, rules=(
        FaultRule("store.get.io", probability=0.2),
        FaultRule("worker.kill", probability=0.1),
    ))
    with armed(plan):
        records = sweep(...)   # every fault either recovers bit-identically
                               # or surfaces as a typed ServiceError

``tools/chaos_sim.py`` drives seeded campaigns of random plans and
dumps any failing plan as a replayable JSON artifact.
"""

from repro.faultline.faults import (
    InjectedFault,
    InjectedMmapError,
    StoreIOFault,
    WorkerKillFault,
)
from repro.faultline.hooks import active, arm, armed, disarm, should_fire
from repro.faultline.plan import (
    NO_FAULTS,
    SITES,
    FaultInjector,
    FaultPlan,
    FaultRule,
)

__all__ = [
    "NO_FAULTS",
    "SITES",
    "FaultInjector",
    "FaultPlan",
    "FaultRule",
    "InjectedFault",
    "InjectedMmapError",
    "StoreIOFault",
    "WorkerKillFault",
    "active",
    "arm",
    "armed",
    "disarm",
    "should_fire",
]
