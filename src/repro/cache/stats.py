"""Cache statistics roll-ups."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class CacheLevelStats:
    """Immutable snapshot of one cache's counters."""

    name: str
    hits: int
    misses: int

    @property
    def accesses(self) -> int:
        """Total lookups (hits + misses)."""
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        """Misses as a fraction of lookups (0.0 when idle)."""
        return self.misses / self.accesses if self.accesses else 0.0
