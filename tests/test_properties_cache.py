"""Hypothesis properties: LRU cache semantics.

:class:`repro.cache.cache.Cache` (insertion-ordered dict tricks,
``_ABSENT`` sentinel, hashed set indexing) must behave exactly like a
brute-force LRU model written with plain lists.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.cache import Cache
from repro.machine.topology import CacheGeometry


class ModelLRU:
    """Brute-force reference cache: lists, linear scans, obvious code."""

    def __init__(self, num_sets: int, ways: int, set_of_line) -> None:
        self.num_sets = num_sets
        self.ways = ways
        self.set_of_line = set_of_line
        # Each set: list of [line, dirty], LRU first, MRU last.
        self.sets = [[] for _ in range(num_sets)]

    def _find(self, entries, line):
        for i, (line_addr, _) in enumerate(entries):
            if line_addr == line:
                return i
        return None

    def lookup(self, line: int, is_write: bool) -> bool:
        entries = self.sets[self.set_of_line(line)]
        i = self._find(entries, line)
        if i is None:
            return False
        entry = entries.pop(i)
        entry[1] = entry[1] or is_write
        entries.append(entry)
        return True

    def insert(self, line: int, dirty: bool):
        entries = self.sets[self.set_of_line(line)]
        i = self._find(entries, line)
        victim = None
        if i is not None:
            dirty = entries.pop(i)[1] or dirty
        elif len(entries) >= self.ways:
            old, old_dirty = entries.pop(0)
            if old_dirty:
                victim = old
        entries.append([line, dirty])
        return victim

    def contents(self):
        """Per-set (line, dirty) tuples in LRU -> MRU order."""
        return [tuple(tuple(e) for e in s) for s in self.sets]


def _cache_contents(cache: Cache):
    return [tuple(s.items()) for s in cache._sets]


@st.composite
def cache_and_ops(draw):
    """A small cache geometry plus a random lookup/insert/... sequence."""
    sets_log2 = draw(st.integers(1, 4))
    ways = draw(st.integers(1, 4))
    hash_index = draw(st.booleans())
    geometry = CacheGeometry(
        size_bytes=(1 << sets_log2) * ways * 64, line_bytes=64, ways=ways
    )
    lines = st.integers(0, (1 << sets_log2) * ways * 4)
    ops = draw(st.lists(st.tuples(
        st.sampled_from(["lookup", "insert", "mark_dirty", "invalidate"]),
        lines,
        st.booleans(),
    ), max_size=200))
    return geometry, hash_index, ops


class TestCacheVsBruteForce:
    @settings(max_examples=200, deadline=None)
    @given(cache_and_ops())
    def test_equivalent_to_model(self, case):
        geometry, hash_index, ops = case
        cache = Cache(geometry, name="sut", hash_index=hash_index)
        model = ModelLRU(cache.num_sets, geometry.ways, cache.set_of_line)
        for op, line, flag in ops:
            if op == "lookup":
                assert cache.lookup(line, flag) == model.lookup(line, flag)
            elif op == "insert":
                assert cache.insert(line, flag) == model.insert(line, flag)
            elif op == "mark_dirty":
                entries = model.sets[model.set_of_line(line)]
                i = model._find(entries, line)
                if i is not None:
                    entries[i][1] = True
                assert cache.mark_dirty(line) == (i is not None)
            else:
                entries = model.sets[model.set_of_line(line)]
                i = model._find(entries, line)
                if i is not None:
                    entries.pop(i)
                assert cache.invalidate(line) == (i is not None)
            # Full-state equivalence after every op: same lines, same
            # dirty bits, same LRU order in every set.
            assert _cache_contents(cache) == model.contents()

    @settings(max_examples=100, deadline=None)
    @given(cache_and_ops())
    def test_occupancy_never_exceeds_ways(self, case):
        geometry, hash_index, ops = case
        cache = Cache(geometry, name="sut", hash_index=hash_index)
        for op, line, flag in ops:
            if op == "lookup":
                cache.lookup(line, flag)
            elif op == "insert":
                cache.insert(line, flag)
            for idx in range(cache.num_sets):
                assert cache.occupancy_of_set(idx) <= geometry.ways
