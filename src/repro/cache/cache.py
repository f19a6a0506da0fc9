"""A single set-associative, write-back, LRU cache.

Tags are full line addresses (physical address >> offset bits), so the
model is exact regardless of which address bits form the set index.
Per-set state is one insertion-ordered dict mapping line address -> dirty
bit, with the MRU entry last: a hit is one ``dict.pop`` + reinsert, an
eviction is ``next(iter(...))`` — all O(1), no list scans and no control
flow via exceptions on the miss path (this is the simulator's hottest
data structure; see docs/ARCHITECTURE.md, "Fast path").
"""

from __future__ import annotations

from typing import NamedTuple

from repro.machine.topology import CacheGeometry

#: Miss sentinel for ``dict.pop`` (distinguishes "absent" from a stored
#: ``False`` dirty bit without a second hash lookup).
_ABSENT = object()


class EvictedLine(NamedTuple):
    """A line pushed out of a cache by an insertion.

    A NamedTuple rather than a dataclass: three are constructed per
    LLC-missing access on the fill path, and tuple construction is
    several times cheaper than a frozen dataclass ``__init__``.
    """

    line_addr: int
    dirty: bool


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
        # set_of_line(), manually inlined: this is the simulator's hottest path.
        if self._hash:
            ib = self._index_bits
            idx = (line_addr ^ (line_addr >> ib) ^ (line_addr >> (ib + ib))) & self._set_mask
        else:
            idx = line_addr & self._set_mask
        entries = self._sets[idx]
        dirty = entries.pop(line_addr, _ABSENT)
        if dirty is _ABSENT:
            self.misses += 1
            return False
        entries[line_addr] = dirty or is_write
        self.hits += 1
        return True

    def insert(self, line_addr: int, dirty: bool) -> EvictedLine | None:
        """Install a line, evicting the LRU entry of a full set.

        Returns the eviction victim (with its dirty state) or None.
        """
        if self._hash:
            ib = self._index_bits
            idx = (line_addr ^ (line_addr >> ib) ^ (line_addr >> (ib + ib))) & self._set_mask
        else:
            idx = line_addr & self._set_mask
        entries = self._sets[idx]
        victim: EvictedLine | None = None
        present = entries.pop(line_addr, _ABSENT)
        if present is not _ABSENT:
            # Refresh an already-present line (e.g. refill racing a hit);
            # an established dirty bit survives a clean refill.
            dirty = present or dirty
        elif len(entries) >= self._ways:
            old = next(iter(entries))
            victim = EvictedLine(line_addr=old, dirty=entries.pop(old))
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

    @property
    def miss_rate(self) -> float:
        """Fraction of lookups that missed (0.0 when never accessed)."""
        return self.misses / self.accesses if self.accesses else 0.0

    def occupancy(self) -> int:
        """Number of valid lines currently held."""
        return sum(len(s) for s in self._sets)

    def occupancy_of_set(self, index: int) -> int:
        """Number of valid lines in one set."""
        return len(self._sets[index])

    def reset(self) -> None:
        """Drop all lines and zero the hit/miss counters."""
        for s in self._sets:
            s.clear()
        self.hits = 0
        self.misses = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Cache({self.name}, {self.geometry.size_bytes}B, "
            f"{self.geometry.ways}-way, {self.num_sets} sets)"
        )
