"""Array-side cache kernels for the engine's batched replay path.

The dict-based :class:`~repro.cache.cache.Cache` stays the system of
record for *stateful* LRU content — per-access hit/miss outcomes depend
on eviction history and cannot be replayed out of order.  What CAN be
hoisted out of the per-access loop is everything *stateless* about an
access: which set it indexes in each level, and whether it is a
guaranteed cold miss.  These kernels compute those properties for a
whole trace in a handful of numpy passes; the engine then replays the
residual stateful work (LRU updates, evictions, DRAM) through plain
Python with all per-access address math already done.

Bit-compatibility contract: each kernel mirrors a scalar method of
``Cache`` exactly (named in its docstring), and
``tests/test_cache_batch.py`` pins the two together element by element.
"""

from __future__ import annotations

import numpy as np


def set_index_batch(
    lines: np.ndarray, index_bits: int, set_mask: int, hashed: bool
) -> np.ndarray:
    """Vectorised :meth:`repro.cache.cache.Cache.set_of_line`.

    Computes the set index of every line address in ``lines`` — the
    XOR-folded (VIPT-like) index when ``hashed`` is true, the plain
    low-bits index otherwise.  Element ``i`` is bit-identical to
    ``cache.set_of_line(lines[i])`` for a cache with the same geometry.

    Args:
        lines: int64 array of line addresses (tags).
        index_bits: log2 of the number of sets (the fold distance).
        set_mask: ``num_sets - 1``.
        hashed: whether the cache uses hashed set indexing.

    Returns:
        int64 array of set indices, aligned with ``lines``.
    """
    lines = np.asarray(lines, dtype=np.int64)
    if not hashed:
        return lines & set_mask
    return (lines ^ (lines >> index_bits) ^ (lines >> (2 * index_bits))) \
        & set_mask
