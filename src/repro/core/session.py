"""Thread-team setup: pinning plus policy-driven coloring in one step.

:class:`ColoredTeam` reproduces the paper's experimental setup: N threads
pinned to a chosen core set, colored according to one of the evaluated
policies (buddy / BPM / LLC / MEM / MEM+LLC / part variants) by the
planner, each via the standard one-line initialisation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.alloc.planner import ColorAssignment, plan_colors
from repro.alloc.policies import Policy
from repro.core.tintmalloc import ThreadHandle, TintMalloc


@dataclass
class ColoredTeam:
    """A pinned, colored thread team over one TintMalloc instance.

    Attributes:
        tm: the allocator/machine facade.
        policy: coloring policy applied at construction.
        handles: thread handles in team order (thread 0 = master).
        assignments: the color plan actually applied.
    """

    tm: TintMalloc
    policy: Policy
    handles: list[ThreadHandle] = field(default_factory=list)
    assignments: list[ColorAssignment] = field(default_factory=list)

    @classmethod
    def create(
        cls,
        tm: TintMalloc,
        cores: list[int],
        policy: Policy,
    ) -> "ColoredTeam":
        """Spawn one thread per core and color the team per ``policy``.

        ``policy`` is a named :class:`Policy` or a structured
        :class:`~repro.alloc.custom.CustomPolicy` (explicit per-thread
        assignments); both go through :func:`plan_colors`.
        """
        assignments = plan_colors(
            policy, cores, tm.kernel.mapping, tm.kernel.topology
        )
        team = cls(tm=tm, policy=policy)
        for core, assignment in zip(cores, assignments):
            handle = tm.spawn_thread(core)
            if assignment.colored:
                handle.set_colors(
                    mem=assignment.mem_colors or None,
                    llc=assignment.llc_colors or None,
                )
            team.handles.append(handle)
            team.assignments.append(assignment)
        return team

    @property
    def master(self) -> ThreadHandle:
        """Thread 0 — the fork-join master that runs serial sections."""
        return self.handles[0]

    @property
    def nthreads(self) -> int:
        """Team size (one pinned thread per handle)."""
        return len(self.handles)
