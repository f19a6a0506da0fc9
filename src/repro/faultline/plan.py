"""Deterministic, serializable fault schedules.

A :class:`FaultPlan` is a seed plus a list of :class:`FaultRule`\\ s.
Whether a rule fires at a given hook point is a **pure function of
(plan seed, site, scope)** — a sha256-derived uniform draw compared
against the rule's probability — so the decision does not depend on
thread interleaving, wall-clock time, or how many other sites fired
first.  The same plan armed in a fresh process (or a forked service
worker) makes exactly the same decisions, which is what makes a failing
chaos campaign replayable from its serialized plan alone.

``scope`` is a caller-supplied string naming the logical occasion
(e.g. ``"<digest12>#a0"`` for attempt 0 of a job, or the digest for a
store lookup).  Rules can optionally pin ``scopes`` for surgical
injection ("kill exactly attempt 0 of this job") and ``max_fires`` to
bound blast radius; fire counts are per-armed-injector (per process).
"""

from __future__ import annotations

import hashlib
import json
import struct
import threading
from dataclasses import dataclass, field, fields

#: Catalogue of instrumented hook points, by layer.  Plans may only
#: reference sites listed here — a typo'd site would otherwise silently
#: never fire and a campaign would "pass" without testing anything.
SITES = (
    # repro.service.store (the service books each as a cache miss)
    "store.get.io",        # lookup raises StoreIOFault
    "store.get.corrupt",   # lookup returns a bit-flipped payload
    "store.put.io",        # persist raises StoreIOFault
    # repro.service.client / worker (a crash or timeout is retried)
    "sched.attempt.kill",  # attempt synthesized as a worker crash
    "worker.kill",         # worker process hard-exits mid-attempt
    "worker.hang",         # worker blocks (parent must enforce timeout_s)
    "worker.slow_start",   # worker stalls briefly before running
    # repro.kernel (the run raises; the job fails typed, unretried)
    "kernel.pagealloc.exhaust",  # alloc_pages reports frame exhaustion
    "kernel.mmap.fail",    # sys_mmap raises an injected ENOMEM
)

#: Default stall lengths (seconds) for the time-shaped worker faults.
DEFAULT_HANG_S = 3600.0
DEFAULT_SLOW_START_S = 0.05


@dataclass(frozen=True)
class FaultRule:
    """One schedule entry: where, how often, and how hard to fire.

    Attributes:
        site: hook-point name (must appear in :data:`SITES`).
        probability: chance the rule fires per (site, scope) occasion,
            drawn deterministically from the plan seed.
        scopes: when non-empty, the rule only fires on these exact scope
            strings (surgical injection); empty matches every scope.
        max_fires: per-process cap on how many times the rule fires
            (None = unlimited).
        arg: fault-shaped parameter — stall seconds for ``worker.hang``
            / ``worker.slow_start``, ignored elsewhere.
    """

    site: str
    probability: float = 1.0
    scopes: tuple[str, ...] = ()
    max_fires: int | None = None
    arg: float | None = None

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise ValueError(
                f"unknown fault site {self.site!r} (see faultline.SITES)"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        if self.max_fires is not None and self.max_fires < 0:
            raise ValueError("max_fires must be >= 0")
        # JSON round-trips lists; canonicalize to a tuple for hashing.
        if not isinstance(self.scopes, tuple):
            object.__setattr__(self, "scopes", tuple(self.scopes))

    def to_json(self) -> dict:
        """Plain-dict form (inverse of :meth:`from_json`)."""
        return {
            "site": self.site,
            "probability": self.probability,
            "scopes": list(self.scopes),
            "max_fires": self.max_fires,
            "arg": self.arg,
        }

    @classmethod
    def from_json(cls, data: dict) -> "FaultRule":
        """Build a rule from its dict form; ignores unknown keys."""
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})


def _draw(seed: int, site: str, scope: str) -> float:
    """Deterministic uniform [0, 1) draw for one (seed, site, scope)."""
    digest = hashlib.sha256(
        f"{seed}\x1f{site}\x1f{scope}".encode()
    ).digest()
    (value,) = struct.unpack(">Q", digest[:8])
    return value / 2**64


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, serializable fault schedule.

    The empty plan (:data:`NO_FAULTS`) is the zero-overhead default:
    arming it is a no-op, exactly like ``--sanitize off``.
    """

    seed: int = 0
    rules: tuple[FaultRule, ...] = ()

    @property
    def empty(self) -> bool:
        """Whether arming this plan can never inject anything."""
        return not any(r.probability > 0 for r in self.rules)

    def decide(self, site: str, scope: str) -> FaultRule | None:
        """The rule that would fire at (site, scope), ignoring fire caps.

        Pure and stateless — tests use it to predict injector behaviour;
        the injector adds ``max_fires`` bookkeeping on top.
        """
        for rule in self.rules:
            if rule.site != site:
                continue
            if rule.scopes and scope not in rule.scopes:
                continue
            if _draw(self.seed, site, scope) < rule.probability:
                return rule
        return None

    # ------------------------------------------------------------ serialization
    def to_json(self) -> dict:
        """Plain-dict form, stable under json.dumps round trips."""
        return {
            "seed": self.seed,
            "rules": [r.to_json() for r in self.rules],
        }

    @classmethod
    def from_json(cls, data: dict) -> "FaultPlan":
        """Inverse of :meth:`to_json`."""
        return cls(
            seed=int(data.get("seed", 0)),
            rules=tuple(
                FaultRule.from_json(r) for r in data.get("rules", ())
            ),
        )

    def dumps(self) -> str:
        """Canonical JSON text (what CI artifacts and --faultline use)."""
        return json.dumps(self.to_json(), sort_keys=True, indent=2)

    @classmethod
    def loads(cls, text: str) -> "FaultPlan":
        """Parse a plan from :meth:`dumps` output."""
        return cls.from_json(json.loads(text))


#: The do-nothing plan; arming it leaves every hook on its fast path.
NO_FAULTS = FaultPlan()


@dataclass
class FaultInjector:
    """Runtime decision engine for one armed plan.

    Wraps the pure :meth:`FaultPlan.decide` with per-process
    ``max_fires`` bookkeeping and a fired-event log (site, scope) that
    campaign reports and tests read back.
    """

    plan: FaultPlan
    fired: list[tuple[str, str]] = field(default_factory=list)
    _counts: dict[int, int] = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def check(self, site: str, scope: str) -> FaultRule | None:
        """The rule firing at (site, scope) now, honouring fire caps."""
        rule = self.plan.decide(site, scope)
        if rule is None:
            return None
        with self._lock:
            if rule.max_fires is not None:
                index = id(rule)
                if self._counts.get(index, 0) >= rule.max_fires:
                    return None
                self._counts[index] = self._counts.get(index, 0) + 1
            self.fired.append((site, scope))
        return rule

    def fire_count(self, site: str | None = None) -> int:
        """Total fires so far (optionally restricted to one site)."""
        with self._lock:
            if site is None:
                return len(self.fired)
            return sum(1 for s, _ in self.fired if s == site)
