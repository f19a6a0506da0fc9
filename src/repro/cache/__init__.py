"""Set-associative cache models: private L1/L2 per core, shared LLC.

The LLC model is what makes page coloring observable: its set index is a
slice of the physical address, so frames whose bits 12-16 (on the Opteron
preset) differ land in disjoint set groups, and threads with disjoint LLC
colors cannot evict each other's lines (paper Fig. 9).
"""

from repro.cache.cache import Cache
from repro.cache.hierarchy import CacheHierarchy, CacheTiming, MemoryLevel
from repro.cache.prefetch import StridePrefetcher
from repro.cache.stats import CacheLevelStats

__all__ = [
    "Cache",
    "CacheHierarchy",
    "CacheTiming",
    "MemoryLevel",
    "StridePrefetcher",
    "CacheLevelStats",
]
