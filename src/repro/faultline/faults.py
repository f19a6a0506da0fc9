"""Typed faults the injection framework raises at instrumented points.

Every injected fault is an :class:`InjectedFault` carrying the hook-site
name and the scope string it fired on, so a failure report can name the
exact (plan, site, scope) triple that produced it.  Layer-specific
subclasses also inherit the exception type the *real* failure would
have (e.g. :class:`StoreIOFault` is an ``OSError``), so the code under
test cannot tell an injected fault from an organic one — which is the
point: the degradation paths exercised are the production ones.
"""

from __future__ import annotations


class InjectedFault(Exception):
    """Base class for all faultline-injected failures."""

    def __init__(self, site: str, scope: str, detail: str = "") -> None:
        message = f"faultline[{site}] fired on scope {scope!r}"
        if detail:
            message += f": {detail}"
        super().__init__(message)
        self.site = site
        self.scope = scope


class StoreIOFault(InjectedFault, OSError):
    """Simulated backing-medium I/O error in a result store."""


class WorkerKillFault(InjectedFault):
    """Simulated hard worker death (maps to a *crash* attempt outcome)."""


class InjectedMmapError(InjectedFault, OSError):
    """Simulated ``mmap()`` failure (the kernel's ENOMEM path)."""
