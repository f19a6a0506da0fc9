"""Unit + property tests for the set-associative cache model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.cache import Cache
from repro.machine.topology import CacheGeometry

SMALL = CacheGeometry(size_bytes=1024, line_bytes=64, ways=2)  # 8 sets


@pytest.fixture
def cache():
    return Cache(SMALL, name="test")


def line_in_set(set_index: int, tag: int, geometry=SMALL) -> int:
    """Build a line address landing in ``set_index`` (plain indexing)."""
    return (tag * geometry.num_sets) + set_index


class TestLookupInsert:
    def test_cold_miss(self, cache):
        assert not cache.lookup(5, False)
        assert cache.misses == 1

    def test_hit_after_insert(self, cache):
        cache.insert(5, dirty=False)
        assert cache.lookup(5, False)
        assert cache.hits == 1

    def test_insert_same_line_no_duplicate(self, cache):
        cache.insert(5, False)
        cache.insert(5, False)
        assert cache.occupancy() == 1

    def test_capacity_eviction_lru(self, cache):
        a, b, c = (line_in_set(3, t) for t in range(3))
        cache.insert(a, True)
        cache.insert(b, True)
        assert cache.insert(c, False) == a  # least recently used

    def test_lookup_refreshes_lru(self, cache):
        a, b, c = (line_in_set(3, t) for t in range(3))
        cache.insert(a, True)
        cache.insert(b, True)
        cache.lookup(a, False)  # a becomes MRU
        assert cache.insert(c, False) == b

    def test_sets_are_independent(self, cache):
        for s in range(SMALL.num_sets):
            cache.insert(line_in_set(s, 0), False)
        assert cache.occupancy() == SMALL.num_sets
        for s in range(SMALL.num_sets):
            assert cache.occupancy_of_set(s) == 1


class TestDirty:
    def test_dirty_eviction_reported(self, cache):
        a, b, c = (line_in_set(1, t) for t in range(3))
        cache.insert(a, dirty=True)
        cache.insert(b, dirty=False)
        assert cache.insert(c, False) == a

    def test_write_hit_sets_dirty(self, cache):
        a, b, c = (line_in_set(1, t) for t in range(3))
        cache.insert(a, False)
        cache.lookup(a, is_write=True)
        cache.insert(b, False)
        assert cache.insert(c, False) == a  # dirtied by the write hit

    def test_mark_dirty_requires_presence(self, cache):
        assert not cache.mark_dirty(42)
        cache.insert(42, False)
        assert cache.mark_dirty(42)

    def test_clean_eviction_not_dirty(self, cache):
        a, b, c = (line_in_set(1, t) for t in range(3))
        cache.insert(a, False)
        cache.insert(b, False)
        assert cache.insert(c, False) is None  # dropped, nothing to write
        assert not cache.contains(a)


class TestInvalidate:
    def test_invalidate_present(self, cache):
        cache.insert(7, dirty=True)
        assert cache.invalidate(7)
        assert not cache.lookup(7, False)

    def test_invalidate_absent(self, cache):
        assert not cache.invalidate(7)

    def test_reset(self, cache):
        cache.insert(1, True)
        cache.lookup(1, False)
        cache.reset()
        assert cache.occupancy() == 0
        assert cache.hits == cache.misses == 0


class TestHashedIndexing:
    def test_hash_spreads_fixed_low_bits(self):
        """Lines whose plain set-index bits are identical (page-colored
        addresses) must still spread over sets under hashed indexing.

        The XOR fold reaches 3x the index width; color bits on real
        geometries (L1/L2 index >= 7 bits, color bits 5-9 above the line
        offset) are comfortably inside that.  The tiny 3-bit test geometry
        mimics the ratio by varying bits just above the index.
        """
        hashed = Cache(SMALL, hash_index=True)
        sets = {
            hashed.set_of_line((t << 4) | 3)  # same index bits, tag varies
            for t in range(64)
        }
        assert len(sets) > 4

    def test_plain_keeps_low_bits(self):
        plain = Cache(SMALL, hash_index=False)
        sets = {plain.set_of_line((t << 10) | 3) for t in range(64)}
        assert sets == {3}

    def test_hash_is_deterministic(self):
        c1, c2 = Cache(SMALL, hash_index=True), Cache(SMALL, hash_index=True)
        for line in (0, 9999, 123456):
            assert c1.set_of_line(line) == c2.set_of_line(line)


class TestProperties:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 255), min_size=1, max_size=300))
    def test_occupancy_never_exceeds_capacity(self, lines):
        cache = Cache(SMALL)
        for line in lines:
            if not cache.lookup(line, False):
                cache.insert(line, False)
            assert cache.occupancy() <= SMALL.num_lines
            for s in range(SMALL.num_sets):
                assert cache.occupancy_of_set(s) <= SMALL.ways

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 255), min_size=1, max_size=200))
    def test_immediate_reaccess_always_hits(self, lines):
        cache = Cache(SMALL)
        for line in lines:
            if not cache.lookup(line, False):
                cache.insert(line, False)
            assert cache.lookup(line, False)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 2**30), min_size=1, max_size=200))
    def test_hits_plus_misses_equals_accesses(self, lines):
        cache = Cache(SMALL, hash_index=True)
        for line in lines:
            cache.lookup(line, False)
        assert cache.hits + cache.misses == len(lines)
