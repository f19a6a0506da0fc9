"""Structured coloring policies — the search genome's phenotype.

The paper's policies (:class:`~repro.alloc.policies.Policy`) are seven
named points in a much larger configuration space: any per-thread pair
of (bank color set, LLC color set), plus the boot state of the buddy
free lists (pristine vs aged) and the page size the heap hands out.
:class:`CustomPolicy` makes that full space a first-class, serializable
policy value:

* per-thread :class:`~repro.alloc.planner.ColorAssignment`\\ s applied
  exactly like a planner-produced plan (same ``mmap()`` directives);
* ``aged`` — boot the kernel with fragmented, shuffled free lists
  (:meth:`~repro.kernel.buddy.BuddyAllocator.fragment`), the aging
  state the paper's error bars come from;
* ``hugepages`` — back the workload heap with 2 MiB pages, which
  bypass coloring entirely (paper §III-C) — a legal, sometimes-winning
  corner of the space the search must be able to reach.

A :class:`CustomPolicy` round-trips losslessly through ``to_json`` /
``from_json``; the JSON form is what rides in a
:class:`~repro.service.JobSpec`'s ``policy`` field (see
``repro.service.jobs``) and what :mod:`repro.search` genomes decode to.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.alloc.planner import ColorAssignment
from repro.alloc.policies import Policy
from repro.machine.address import AddressMapping
from repro.machine.topology import MachineTopology

#: JSON ``type`` tag identifying a structured-policy payload.
POLICY_TYPE = "custom"


@dataclass(frozen=True)
class CustomPolicy:
    """An explicit per-thread coloring plan plus allocator knobs.

    Attributes:
        name: display label (shows up as ``RunRecord.policy``); keep it
            short and digest-like for search phenotypes.
        assignments: one :class:`ColorAssignment` per thread, in thread
            order — empty tuples mean "uncolored" on that axis, exactly
            as the planner emits.
        aged: boot the kernel on an aged system (fragmented, shuffled
            buddy free lists seeded from the run's rep seed).
        hugepages: back workload heap allocations with 2 MiB pages
            (bypasses coloring, paper §III-C).
    """

    name: str
    assignments: tuple[ColorAssignment, ...]
    aged: bool = False
    hugepages: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("CustomPolicy needs a non-empty name")
        canon = tuple(
            ColorAssignment(
                mem_colors=tuple(sorted(set(a.mem_colors))),
                llc_colors=tuple(sorted(set(a.llc_colors))),
            )
            for a in self.assignments
        )
        object.__setattr__(self, "assignments", canon)

    # ------------------------------------------------------------------ info
    @property
    def label(self) -> str:
        """Display label, mirroring :attr:`Policy.label`."""
        return self.name

    # ------------------------------------------------------------ validation
    def validate(
        self, mapping: AddressMapping, topology: MachineTopology,
        nthreads: int | None = None,
    ) -> None:
        """Check the plan against a machine preset; raises ValueError.

        Verifies thread count (when given), color ranges, and that every
        thread coloring both axes keeps at least one *compatible*
        (bank, LLC) pair — an incompatible pair has zero physical frames
        and would fail on the first fault (see
        :meth:`AddressMapping.colors_compatible`).
        """
        if nthreads is not None and len(self.assignments) != nthreads:
            raise ValueError(
                f"policy {self.name!r} colors {len(self.assignments)} "
                f"threads, config has {nthreads}"
            )
        for i, a in enumerate(self.assignments):
            for c in a.mem_colors:
                if not 0 <= c < mapping.num_bank_colors:
                    raise ValueError(
                        f"thread {i}: bank color {c} out of range "
                        f"[0, {mapping.num_bank_colors})"
                    )
            for c in a.llc_colors:
                if not 0 <= c < mapping.num_llc_colors:
                    raise ValueError(
                        f"thread {i}: LLC color {c} out of range "
                        f"[0, {mapping.num_llc_colors})"
                    )
            if a.mem_colors and a.llc_colors and not any(
                mapping.colors_compatible(bc, lc)
                for bc in a.mem_colors
                for lc in a.llc_colors
            ):
                raise ValueError(
                    f"thread {i}: no compatible (bank, LLC) pair in "
                    f"mem={a.mem_colors} llc={a.llc_colors}"
                )

    # ------------------------------------------------------------ conversion
    def to_json(self) -> dict:
        """Canonical plain-dict form (sorted color lists, stable keys).

        Two equal policies serialize to byte-identical canonical JSON,
        which is what makes genome -> JobSpec digests stable and
        cache-friendly.
        """
        return {
            "type": POLICY_TYPE,
            "name": self.name,
            "mem": [list(a.mem_colors) for a in self.assignments],
            "llc": [list(a.llc_colors) for a in self.assignments],
            "aged": self.aged,
            "hugepages": self.hugepages,
        }

    @classmethod
    def from_json(cls, data: dict) -> "CustomPolicy":
        """Inverse of :meth:`to_json`; raises ValueError on bad shape."""
        if not isinstance(data, dict):
            raise ValueError(f"structured policy must be a dict, got {type(data)}")
        if data.get("type") != POLICY_TYPE:
            raise ValueError(
                f"unknown structured policy type {data.get('type')!r}"
            )
        mem = data.get("mem")
        llc = data.get("llc")
        if not isinstance(mem, (list, tuple)) or not isinstance(llc, (list, tuple)):
            raise ValueError("structured policy needs 'mem' and 'llc' lists")
        if len(mem) != len(llc):
            raise ValueError(
                f"mem colors for {len(mem)} threads but llc for {len(llc)}"
            )
        assignments = tuple(
            ColorAssignment(
                mem_colors=tuple(int(c) for c in m),
                llc_colors=tuple(int(c) for c in lc),
            )
            for m, lc in zip(mem, llc)
        )
        return cls(
            name=str(data.get("name", "custom")),
            assignments=assignments,
            aged=bool(data.get("aged", False)),
            hugepages=bool(data.get("hugepages", False)),
        )


def resolve_policy(policy: "str | dict | Policy | CustomPolicy"):
    """Decode a JobSpec ``policy`` payload into a runnable policy value.

    Strings are the original named policies (``Policy("mem+llc")``);
    dicts are structured :class:`CustomPolicy` payloads.  Already-typed
    values pass through, so callers can be liberal.
    """
    if isinstance(policy, (Policy, CustomPolicy)):
        return policy
    if isinstance(policy, str):
        return Policy(policy)
    return CustomPolicy.from_json(policy)
