"""Allocation/coloring policies compared in the paper (§V-B).

========================  ====================================================
policy                    meaning
========================  ====================================================
BUDDY                     standard Linux buddy allocation, no coloring
BPM                       bank + LLC partitioning *without* controller
                          awareness (Liu et al. [10]) — the prior-work
                          baseline; banks are private but may be remote
LLC                       private LLC colors per thread, memory uncolored
MEM                       private (local) bank colors per thread, LLC
                          uncolored
MEM_LLC                   private bank colors and private LLC colors
MEM_LLC_PART              private bank colors; LLC colors shared within a
                          thread group
LLC_MEM_PART              private LLC colors; bank colors shared within a
                          thread group
========================  ====================================================
"""

from __future__ import annotations

import enum


class Policy(enum.Enum):
    """Coloring policy for one experiment run."""

    BUDDY = "buddy"
    BPM = "bpm"
    LLC = "llc"
    MEM = "mem"
    MEM_LLC = "mem+llc"
    MEM_LLC_PART = "mem+llc(part)"
    LLC_MEM_PART = "llc+mem(part)"

    @property
    def label(self) -> str:
        return self.value


#: The TintMalloc variants evaluated against MEM_LLC for "best other".
TINT_VARIANTS = (Policy.LLC, Policy.MEM, Policy.MEM_LLC_PART, Policy.LLC_MEM_PART)

#: Everything except BUDDY normalisation base.
ALL_POLICIES = tuple(Policy)
