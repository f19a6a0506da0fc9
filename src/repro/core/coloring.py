"""Color-space arithmetic: capacity of a color set, validation helpers.

Because colored allocation constrains frames to the intersection of a bank
color set and an LLC color set, the *capacity* available to a thread is a
hard budget (the paper: "If there is no memory left of a given color,
mmap() will return an error code").  These helpers let callers size
workloads against that budget up front.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.machine.address import AddressMapping


@dataclass(frozen=True)
class ColorCapacity:
    """Physical capacity reachable under a color constraint pair."""

    frames: int
    bytes: int
    llc_bytes: int  # LLC capacity covered by the LLC color set


def color_capacity(
    mapping: AddressMapping,
    mem_colors: Sequence[int] | None,
    llc_colors: Sequence[int] | None,
    llc_size_bytes: int | None = None,
) -> ColorCapacity:
    """Capacity of the frame set matching ``mem_colors`` x ``llc_colors``.

    ``None`` means unconstrained on that axis.  ``llc_size_bytes`` (total
    LLC size) enables the ``llc_bytes`` figure; pass the platform LLC size.
    """
    n_mem = mapping.num_bank_colors
    n_llc = mapping.num_llc_colors
    if mem_colors is not None:
        _validate(mem_colors, n_mem, "bank")
    if llc_colors is not None:
        _validate(llc_colors, n_llc, "LLC")

    mem_set = sorted(set(mem_colors)) if mem_colors is not None else range(n_mem)
    llc_set = sorted(set(llc_colors)) if llc_colors is not None else range(n_llc)
    llc_count = len(list(llc_set))
    # Only *compatible* (bank, LLC) pairs have physical frames — on the
    # Opteron mapping the bank field overlaps the LLC color bits, so the
    # combo matrix is sparse (see AddressMapping.colors_compatible).
    combos = sum(
        1
        for bc in mem_set
        for lc in llc_set
        if mapping.colors_compatible(bc, lc)
    )
    frames = combos * mapping.frames_per_combo()
    llc_share = (
        (llc_size_bytes * llc_count // n_llc) if llc_size_bytes is not None else 0
    )
    return ColorCapacity(
        frames=frames,
        bytes=frames * mapping.page_bytes,
        llc_bytes=llc_share,
    )


def _validate(colors: Sequence[int], limit: int, kind: str) -> None:
    if len(colors) == 0:
        raise ValueError(f"empty {kind} color set (use None for unconstrained)")
    for c in colors:
        if not 0 <= c < limit:
            raise ValueError(f"{kind} color {c} out of range [0, {limit})")
