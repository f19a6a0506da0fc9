"""A single set-associative, write-back, LRU cache.

Tags are full line addresses (physical address >> offset bits), so the
model is exact regardless of which address bits form the set index.
Per-set state is one insertion-ordered dict mapping line address -> dirty
bit, with the MRU entry last: a hit is one ``dict.pop`` + reinsert, an
eviction is ``next(iter(...))`` — all O(1), no list scans and no control
flow via exceptions on the miss path.  :class:`CacheHierarchy`'s
reference path is built from these methods; the engine's batched loop
replays the same rules on the set dicts directly (docs/ARCHITECTURE.md,
"Fast-path placement").
"""

from __future__ import annotations

from repro.machine.topology import CacheGeometry

#: Miss sentinel for ``dict.pop`` (distinguishes "absent" from a stored
#: ``False`` dirty bit without a second hash lookup).
_ABSENT = object()


class Cache:
    """One cache instance (an L1, an L2, or the shared LLC).

    Args:
        geometry: size/line/ways description.
        name: label used in statistics ("l1[3]", "llc", ...).
        hash_index: use hashed (XOR-folded) set indexing.  Real private
            caches fold higher address bits into the index (or index
            virtually), so OS page coloring does not restrict their
            capacity; the LLC must use plain indexing — that is what
            makes its sets colorable.
    """

    __slots__ = ("geometry", "name", "num_sets", "_set_mask", "_offset_bits",
                 "_index_bits", "_hash", "_ways", "_sets", "hits", "misses")

    def __init__(
        self, geometry: CacheGeometry, name: str = "cache",
        hash_index: bool = False,
    ) -> None:
        self.geometry = geometry
        self.name = name
        self.num_sets = geometry.num_sets
        self._set_mask = geometry.num_sets - 1
        self._offset_bits = geometry.offset_bits
        self._index_bits = geometry.index_bits
        self._hash = hash_index
        self._ways = geometry.ways
        # line address -> dirty bit, insertion-ordered (LRU first, MRU last).
        self._sets: list[dict[int, bool]] = [
            {} for _ in range(geometry.num_sets)
        ]
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------ basics
    def set_of_line(self, line_addr: int) -> int:
        """Set index of a line address (post-hash when enabled)."""
        if self._hash:
            ib = self._index_bits
            folded = line_addr ^ (line_addr >> ib) ^ (line_addr >> (2 * ib))
            return folded & self._set_mask
        return line_addr & self._set_mask

    # ------------------------------------------------------------------ ops
    def lookup(self, line_addr: int, is_write: bool) -> bool:
        """Probe the cache; on a hit refresh LRU and maybe set dirty."""
        entries = self._sets[self.set_of_line(line_addr)]
        dirty = entries.pop(line_addr, _ABSENT)
        if dirty is _ABSENT:
            self.misses += 1
            return False
        entries[line_addr] = dirty or is_write
        self.hits += 1
        return True

    def insert(self, line_addr: int, dirty: bool) -> int | None:
        """Install a line, evicting the LRU entry of a full set.

        Returns the line address of a dirty victim, which the caller
        writes down to the next level, or None; a clean victim is
        dropped.
        """
        entries = self._sets[self.set_of_line(line_addr)]
        victim = None
        present = entries.pop(line_addr, _ABSENT)
        if present is not _ABSENT:
            # Refresh an already-present line (e.g. refill racing a hit);
            # an established dirty bit survives a clean refill.
            dirty = present or dirty
        elif len(entries) >= self._ways:
            old = next(iter(entries))
            if entries.pop(old):
                victim = old
        entries[line_addr] = dirty
        return victim

    def contains(self, line_addr: int) -> bool:
        """Whether the line is resident (no LRU refresh)."""
        return line_addr in self._sets[self.set_of_line(line_addr)]

    def mark_dirty(self, line_addr: int) -> bool:
        """Set the dirty bit if present; returns whether the line was found.

        Does not refresh LRU recency (a write-down from an inner cache is
        not a use of the line by the core).
        """
        entries = self._sets[self.set_of_line(line_addr)]
        if line_addr in entries:
            entries[line_addr] = True
            return True
        return False

    def invalidate(self, line_addr: int) -> bool:
        """Drop a line (no write-back); returns whether it was present."""
        entries = self._sets[self.set_of_line(line_addr)]
        if entries.pop(line_addr, _ABSENT) is _ABSENT:
            return False
        return True

    # ------------------------------------------------------------------ info
    @property
    def accesses(self) -> int:
        """Total lookups (hits + misses)."""
        return self.hits + self.misses

    def occupancy(self) -> int:
        """Number of valid lines currently held."""
        return sum(len(s) for s in self._sets)

    def occupancy_of_set(self, index: int) -> int:
        """Number of valid lines in one set."""
        return len(self._sets[index])
