"""Physical frame pool: per-frame colors and allocation state.

The pool holds every frame's bank color (Eq. 1) and LLC color, computed
once per address mapping — the analogue of the per-``struct page`` color
fields the paper's kernel derives from PCI registers at boot.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence

import numpy as np

from repro.machine.address import AddressMapping


class FrameState(enum.IntEnum):
    """Where a frame currently lives."""

    BUDDY = 0  # on a buddy free list (possibly inside a larger block)
    COLORED_FREE = 1  # on a color_list[mem][llc] free list
    ALLOCATED = 2  # handed out to a task


# Plain-int aliases for the hot paths: attribute lookups on an enum class
# are slow, and the state array holds raw int8 values anyway.
_BUDDY = int(FrameState.BUDDY)
_COLORED_FREE = int(FrameState.COLORED_FREE)
_ALLOCATED = int(FrameState.ALLOCATED)


class FramePool:
    """All physical frames of the machine with color and state tracking."""

    def __init__(self, mapping: AddressMapping) -> None:
        if not mapping.frame_colors_invariant():
            raise ValueError(
                "address mapping does not give frames invariant colors; "
                "coloring requires all color bits at/above the page offset"
            )
        # node_frame_range() (and the kernel's per-node buddy allocators)
        # assume each node owns one contiguous frame range, i.e. the node
        # field occupies the top address bits.  Every scheme built by
        # repro.machine.address.MappingScheme satisfies this; reject
        # hand-rolled mappings that do not rather than mis-route frames.
        node_bits = mapping.fields["node"]
        expected = tuple(
            range(mapping.total_bits - len(node_bits), mapping.total_bits)
        )
        if node_bits != expected:
            raise ValueError(
                f"node field bits {node_bits} are not the top address bits "
                f"{expected}; per-node frame ranges would not be contiguous"
            )
        self.mapping = mapping
        self.num_frames = mapping.num_frames
        #: bank color (Eq. 1) and LLC color per frame: the mapping's
        #: read-only int16 tables, shared (not copied) with every other
        #: user of this mapping instance.
        self.bank_color, self.llc_color = mapping.frame_color_table()
        #: FrameState per frame.
        self.state: np.ndarray = np.full(
            self.num_frames, _BUDDY, dtype=np.int8
        )
        #: owning task id per frame, -1 when not ALLOCATED.
        self.owner: np.ndarray = np.full(self.num_frames, -1, dtype=np.int32)

    @property
    def frames_per_node(self) -> int:
        return self.num_frames // self.mapping.num_nodes

    def node_of_frame(self, pfn: int) -> int:
        """Memory node serving ``pfn`` (from its bank color)."""
        return int(self.bank_color[pfn]) // self.mapping.bank_colors_per_node

    def node_frame_range(self, node: int) -> tuple[int, int]:
        """[start, end) frame numbers owned by ``node``.

        Valid because presets place the node field in the top address bits
        (each controller owns a contiguous range — DRAM base/limit style).
        """
        per = self.frames_per_node
        return node * per, (node + 1) * per

    # --- state transitions, each validating its precondition -----------------
    def mark_allocated(self, pfn: int, owner: int) -> None:
        if self.state[pfn] == _ALLOCATED:
            raise ValueError(f"frame {pfn} already allocated (double alloc)")
        self.state[pfn] = _ALLOCATED
        self.owner[pfn] = owner

    def mark_buddy(self, pfn: int) -> None:
        self.state[pfn] = _BUDDY
        self.owner[pfn] = -1

    # --- block transitions: one vectorized precondition, then slice writes ---
    def mark_range_allocated(self, start: int, end: int, owner: int) -> None:
        """:meth:`mark_allocated` over frames ``[start, end)``."""
        _reject_first(start, self.state[start:end] == _ALLOCATED,
                      "already allocated (double alloc)")
        self.state[start:end] = _ALLOCATED
        self.owner[start:end] = owner

    def mark_frames_colored_free(self, pfns: Sequence[int]) -> None:
        """Move each of ``pfns`` to COLORED_FREE, all checked before any is
        changed: none may already be on a color list or be listed twice.
        The error names the first offending entry in order (a frame
        listed twice is named at its second entry)."""
        if isinstance(pfns, range):
            # A shattered block repeats no frame.  Copying it element by
            # element and building a set of it made a shatter about a
            # third slower and raised fig11_opteron's peak RSS ~3.5 MiB.
            idx = np.arange(pfns.start, pfns.stop, pfns.step)
            repeats = False
        else:
            idx = np.asarray(pfns, dtype=np.intp)
            repeats = len(set(pfns)) < len(pfns)
        if repeats or (self.state[idx] == _COLORED_FREE).any():
            seen: set[int] = set()
            for pfn in pfns:
                if pfn in seen or self.state[pfn] == _COLORED_FREE:
                    raise ValueError(f"frame {pfn} already on a color list")
                seen.add(pfn)
        self.state[idx] = _COLORED_FREE
        self.owner[idx] = -1

    def mark_range_freed(self, start: int, end: int) -> None:
        """Return the ALLOCATED frames ``[start, end)`` to BUDDY."""
        _reject_first(start, self.state[start:end] != _ALLOCATED,
                      "is not allocated (freeing a non-allocated block)")
        self.state[start:end] = _BUDDY
        self.owner[start:end] = -1

    def counts(self) -> dict[str, int]:
        """Frame counts per state (for invariant checks and stats)."""
        values, counts = np.unique(self.state, return_counts=True)
        by_state = dict(zip(values.tolist(), counts.tolist()))
        return {
            "buddy": by_state.get(_BUDDY, 0),
            "colored_free": by_state.get(_COLORED_FREE, 0),
            "allocated": by_state.get(_ALLOCATED, 0),
        }


def _reject_first(start: int, bad: np.ndarray, what: str) -> None:
    """Raise ``ValueError`` naming the first frame flagged in ``bad`` (a
    mask over frames ``start, start+1, ...``); callers mutate only after."""
    hits = np.flatnonzero(bad)
    if hits.size:
        raise ValueError(f"frame {start + int(hits[0])} {what}")
