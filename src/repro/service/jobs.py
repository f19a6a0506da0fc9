"""Job model: canonical :class:`JobSpec` with a stable content digest.

A *job* is one simulator evaluation — a (machine preset, policy,
workload, seed) point.  :class:`JobSpec` is the canonical, JSON-native
description of that point.  Two keys are derived from it:

* :meth:`JobSpec.digest` is the cache line of one (evaluation, label)
  pair.  It covers the policy's display name, because a stored record
  carries that name, so a named ``"mem+llc"`` spec and the search
  genome that plans the same colors under a ``tuned:…`` name have
  different digests.  The result store keys on it and the service
  deduplicates in-flight work by it.
* :meth:`JobSpec.evaluation_digest` identifies the simulation itself:
  it replaces the policy by what the run applies (planned colors plus
  the ``aged``/``hugepages`` flags), so those two specs share it and
  the service runs their simulation once (see
  :class:`~repro.service.client.ServiceClient`).

Both cover *identity* fields only — everything that changes the
simulated result, including the machine fingerprint the profile resolves
to (preset name, installed memory, workload scale) so that a profile
redefinition cannot silently alias old cache entries.  Execution
parameters (timeout, retry budget, trace directory) are *not* part of
identity: the same evaluation under a different retry budget must hit
the same cache line.  A spec JSON that carries a field this build does
not know (an older ``priority``, say) loads with that field ignored and
keeps its digest.
"""

from __future__ import annotations

import enum
import hashlib
import json
from dataclasses import dataclass, fields
from functools import lru_cache

from repro.alloc.custom import POLICY_TYPE, CustomPolicy
from repro.alloc.planner import plan_colors
from repro.alloc.policies import Policy
from repro.experiments.configs import CONFIGS
from repro.experiments.runner import PROFILES, profile_machine
from repro.sanitize import LEVELS as SANITIZE_LEVELS
from repro.sim.metrics import SCHEMA_VERSION


class JobStatus(enum.Enum):
    """Lifecycle state of one submitted job."""

    QUEUED = "queued"
    RUNNING = "running"
    COMPLETED = "completed"
    FAILED = "failed"


@lru_cache(maxsize=None)
def _machine_fingerprint(profile: str) -> tuple[str, int, float]:
    """(preset name, memory bytes, workload scale) a profile resolves to."""
    factory, memory, scale = PROFILES[profile]
    machine = factory(memory)
    return (machine.name, memory, scale)


@lru_cache(maxsize=None)
def _applied_named_policy(policy: str, config: str, profile: str) -> "str | dict":
    """What a run of named ``policy`` applies on ``config``/``profile``.

    The planned per-thread colors, in the order ``plan_colors`` hands
    them to the threads, in the key set of ``CustomPolicy.to_json()``
    without ``name``.  After planning, a run reads a policy only through
    its ``aged``/``hugepages`` flags and its label, so this is exactly
    what a structured twin of the same plan applies.  A name that cannot
    be planned here (a config outside ``CONFIGS``, an unknown policy, a
    plan the machine cannot satisfy) stays its own key: such a spec has
    no twin.
    """
    if config not in CONFIGS:
        return policy
    machine = profile_machine(profile)
    try:
        assignments = plan_colors(
            Policy(policy), list(CONFIGS[config].cores),
            machine.mapping, machine.topology,
        )
    except ValueError:
        return policy
    return {
        "type": POLICY_TYPE,
        "mem": [list(a.mem_colors) for a in assignments],
        "llc": [list(a.llc_colors) for a in assignments],
        "aged": False,
        "hugepages": False,
    }


def _sha256_json(doc: dict) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass(frozen=True)
class JobSpec:
    """Canonical description of one simulator evaluation.

    Identity fields (digested): ``kind``, ``bench``, ``policy``,
    ``config``, ``rep``, ``profile``, ``seed``, ``sanitize``, plus the
    machine fingerprint derived from ``profile``.  Execution fields
    (not digested): ``trace_dir``, ``force_run``, ``timeout_s``,
    ``max_retries``.
    """

    kind: str = "bench"  # "bench" | "synthetic"
    bench: str = "lbm"
    #: named policy value label (e.g. "mem+llc") or a structured policy
    #: dict — a :class:`~repro.alloc.custom.CustomPolicy` payload (the
    #: search genome's phenotype), canonicalized at construction so equal
    #: policies always digest identically.
    policy: "str | dict" = "buddy"
    config: str = "16_threads_4_nodes"
    rep: int = 0
    profile: str = "scaled"
    seed: int = 0
    #: invariant-checking level ("off"/"cheap"/"full"); must survive the
    #: JSON round trip so service workers arm the sanitizer exactly as a
    #: direct run_benchmark() call would.
    sanitize: str = "off"
    # ------------------------------------------------- execution parameters
    #: when set, the worker exports a Perfetto trace file here.
    trace_dir: str | None = None
    #: bypass the result-store lookup (used for traced runs, whose value
    #: is the side-effect files, and for cache-busting reruns).
    force_run: bool = False
    #: per-attempt wall-clock budget, seconds (None = no limit); the
    #: process executor enforces it.
    timeout_s: float | None = None
    #: extra attempts after a crash or timeout (an error is final).
    max_retries: int = 2

    def __post_init__(self) -> None:
        if self.kind not in ("bench", "synthetic"):
            raise ValueError(f"unknown job kind {self.kind!r}")
        if self.profile not in PROFILES:
            raise ValueError(f"unknown profile {self.profile!r}")
        if self.sanitize not in SANITIZE_LEVELS:
            raise ValueError(f"unknown sanitize level {self.sanitize!r}")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if isinstance(self.policy, dict):
            # Validate eagerly and canonicalize (sorted color lists,
            # stable key set) so equal structured policies — however the
            # caller spelled them — produce byte-identical identity JSON.
            object.__setattr__(
                self, "policy", CustomPolicy.from_json(self.policy).to_json()
            )
        elif not isinstance(self.policy, str):
            raise ValueError(
                f"policy must be a name or a structured dict, "
                f"got {type(self.policy).__name__}"
            )

    # ---------------------------------------------------------------- identity
    def identity(self) -> dict:
        """The canonical identity document the digest is computed over."""
        name, memory, scale = _machine_fingerprint(self.profile)
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": self.kind,
            "bench": self.bench,
            "policy": self.policy,
            "config": self.config,
            "rep": self.rep,
            "profile": self.profile,
            "seed": self.seed,
            "sanitize": self.sanitize,
            "machine": {"name": name, "memory_bytes": memory, "scale": scale},
        }

    def digest(self) -> str:
        """Stable content digest: sha256 over the canonical identity JSON.

        The cache line of one (evaluation, label) pair: the policy's
        display name is part of it.
        """
        return _sha256_json(self.identity())

    def evaluation_digest(self) -> str:
        """sha256 over :meth:`identity` with the policy as the run applies it.

        A structured policy drops its ``name``; a named policy becomes
        its planned colors on this spec's config and profile.  Specs
        that differ only in how the same plan is labeled share this
        digest, and their runs return equal records except ``policy``.
        """
        doc = self.identity()
        if isinstance(self.policy, dict):
            doc["policy"] = {
                k: v for k, v in self.policy.items() if k != "name"
            }
        else:
            doc["policy"] = _applied_named_policy(
                self.policy, self.config, self.profile
            )
        return _sha256_json(doc)

    # ------------------------------------------------------------- conversion
    def to_json(self) -> dict:
        """Full plain-dict form (identity + execution parameters)."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["schema_version"] = SCHEMA_VERSION
        return out

    @classmethod
    def from_json(cls, data: dict) -> "JobSpec":
        """Inverse of :meth:`to_json`; ignores unknown keys."""
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})

    @property
    def policy_label(self) -> str:
        """Display name of the policy (named value or structured name)."""
        if isinstance(self.policy, dict):
            return str(self.policy.get("name", "custom"))
        return self.policy

    @property
    def label(self) -> str:
        """Human-readable short name (log lines, span names)."""
        return f"{self.bench}/{self.policy_label}/{self.config}/rep{self.rep}"
