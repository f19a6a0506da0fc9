"""Process-global arming point for fault injection.

Instrumented layers (service stores, scheduler, workers, kernel) call
:func:`should_fire` at their hook points.  When nothing is armed — the
production default — ``_ACTIVE`` is None and the call is a single
attribute load plus an ``is None`` test, the same zero-overhead
discipline the observers use.  Arming an *empty* plan
(:data:`~repro.faultline.plan.NO_FAULTS`) is also a no-op: behaviour
and cost are bit-identical to the unarmed process.

Arming is process-global on purpose: the service's fork-based
executor inherits the armed injector into worker children, so a plan
armed once in the parent injects faults on both sides of the process
boundary with the same deterministic decisions (decisions hash the
plan seed, site, and scope — never process-local state).
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.faultline.plan import NO_FAULTS, FaultInjector, FaultPlan, FaultRule
from repro.obs import metrics as _obs_metrics

#: The armed injector, or None (the fast path).  Read directly by hot
#: call sites via :func:`should_fire`; written only by arm()/disarm().
_ACTIVE: FaultInjector | None = None


def arm(plan: FaultPlan) -> FaultInjector | None:
    """Arm ``plan`` process-wide; returns the injector (None if empty).

    An empty plan disarms instead — the hooks stay on their fast path,
    which is what makes ``NO_FAULTS`` behaviour-identical to not arming
    at all.
    """
    global _ACTIVE
    if plan.empty:
        _ACTIVE = None
        return None
    _ACTIVE = FaultInjector(plan)
    return _ACTIVE


def disarm() -> None:
    """Return every hook point to its zero-overhead fast path."""
    global _ACTIVE
    _ACTIVE = None


def active() -> FaultInjector | None:
    """The armed injector, or None when injection is off."""
    return _ACTIVE


def should_fire(site: str, scope: str) -> FaultRule | None:
    """The rule firing at (site, scope) now, or None.

    The single call every instrumented layer makes; disarmed cost is
    one global read and a comparison.
    """
    injector = _ACTIVE
    if injector is None:
        return None
    rule = injector.check(site, scope)
    if rule is not None:
        # Book the injection in the ambient metrics registry (by site)
        # so a run's --metrics-out snapshot, and the `repro.obs top`
        # frame rendered from it, count the faults.  Firing is rare by
        # construction; the disarmed fast path above is untouched.
        registry = _obs_metrics.active()
        if registry is not None:
            registry.counter("faultline.injections", site=site).inc()
    return rule


@contextmanager
def armed(plan: FaultPlan):
    """Scope an armed plan: ``with armed(plan) as injector: ...``.

    Restores the previously armed injector (usually None) on exit, so
    tests can nest and never leak an armed plan into later tests.
    """
    global _ACTIVE
    previous = _ACTIVE
    injector = arm(plan)
    try:
        yield injector
    finally:
        _ACTIVE = previous


__all__ = [
    "NO_FAULTS",
    "FaultInjector",
    "FaultPlan",
    "FaultRule",
    "active",
    "arm",
    "armed",
    "disarm",
    "should_fire",
]
