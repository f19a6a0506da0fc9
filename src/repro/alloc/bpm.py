"""BPM baseline: bank-level partitioning without controller awareness.

Liu et al. [10] partition DRAM banks and the LLC across threads via page
coloring, but — as the paper stresses — "BPM only partitions memory banks
and LLC but does not indicate a memory controller.  In this case, tasks
may access remote memory nodes and have to pay the remote access penalty."

We reproduce that defining flaw: thread *i* receives a private 1/T slice
of the machine's 128 bank colors drawn from a fixed shuffled order —
private and evenly spread over the whole machine, but blind to where the
thread actually runs, so most of its banks sit behind remote controllers.
LLC colors are a private share chosen from the colors *compatible* with
the thread's banks (bank bits 15/16 overlap the LLC color field on the
Opteron mapping; an incompatible pair would have no frames at all).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.machine.address import AddressMapping
from repro.util.rng import RngStream

if TYPE_CHECKING:  # pragma: no cover
    from repro.alloc.planner import ColorAssignment

#: Fixed seed for BPM's bank shuffle: the assignment is arbitrary but must
#: be reproducible and identical across runs.
_BPM_SEED = 0xB93B


class PlanError(ValueError):
    """A color plan cannot be satisfied (no compatible frames)."""


def bpm_assignments(
    cores: list[int], mapping: AddressMapping
) -> "list[ColorAssignment]":
    """Per-thread color assignments under BPM."""
    from repro.alloc.planner import ColorAssignment

    nthreads = len(cores)
    n_colors = mapping.num_bank_colors
    if nthreads > n_colors:
        raise PlanError(f"more threads ({nthreads}) than bank colors ({n_colors})")
    order = RngStream(_BPM_SEED, "bpm", n_colors).permutation(n_colors).tolist()
    per = n_colors // nthreads
    mem_of = [
        tuple(sorted(order[i * per : (i + 1) * per])) for i in range(nthreads)
    ]

    # Private LLC shares, each drawn from the thread's compatible colors.
    llc_per = max(1, mapping.num_llc_colors // nthreads)
    taken: set[int] = set()
    llc_of: list[tuple[int, ...]] = []
    for i in range(nthreads):
        compatible = {
            lc
            for bc in mem_of[i]
            for lc in mapping.compatible_llc_colors(bc)
        }
        pick = sorted(compatible - taken)[:llc_per]
        if not pick:
            # All compatible colors taken: fall back to sharing (BPM gives
            # no guarantee here; the paper's BPM partitions best-effort).
            pick = sorted(compatible)[:llc_per]
        taken.update(pick)
        llc_of.append(tuple(pick))

    return [
        ColorAssignment(mem_colors=mem_of[i], llc_colors=llc_of[i])
        for i in range(nthreads)
    ]
