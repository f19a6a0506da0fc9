"""The per-frame decode memo: correctness and invalidation.

``AddressMapping.frame_decode`` caches one :class:`DecodedAddress` per
touched frame.  It is the documented decoder and the oracle the per-frame
color table (which DRAM routing reads) is tested against, so it must (a)
agree exactly with the scalar decode helpers for any address, and (b)
never leak entries across mapping instances — a *different* mapping
decodes the same pfn differently, so the memo is strictly per-instance
state.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.address import AddressMapping
from repro.machine.presets import opteron_6128, opteron_6128_scaled

from .test_properties_address import mappings


@pytest.fixture
def mapping():
    return opteron_6128(256 * 1024 * 1024).mapping


class TestFrameDecodeCorrectness:
    @settings(max_examples=50, deadline=None)
    @given(mappings(), st.data())
    def test_roundtrip_through_memo(self, m, data):
        """decode(compose(fields)) == fields, via the frame memo."""
        node = data.draw(st.integers(0, m.num_nodes - 1))
        ch = data.draw(st.integers(0, m.num_channels - 1))
        rank = data.draw(st.integers(0, m.num_ranks - 1))
        bank = data.draw(st.integers(0, m.num_banks - 1))
        free_bits = m.total_bits - sum(len(p) for p in m.fields.values())
        rest = data.draw(st.integers(0, (1 << free_bits) - 1))
        paddr = m.compose(node, ch, rank, bank, rest)
        d = m.frame_decode(paddr >> m.page_bits)
        assert (d.node, d.channel, d.rank, d.bank) == (node, ch, rank, bank)
        assert d.bank_color == m.compose_bank_color(node, ch, rank, bank)

    @settings(max_examples=30, deadline=None)
    @given(mappings(), st.data())
    def test_memo_matches_scalar_helpers(self, m, data):
        """Random addresses: memoized decode == per-call scalar decode."""
        paddr = data.draw(st.integers(0, (1 << m.total_bits) - 1))
        pfn = paddr >> m.page_bits
        d = m.frame_decode(pfn)
        assert d.pfn == pfn
        assert d.bank_color == m.bank_color(paddr)
        assert d.llc_color == m.llc_color(paddr)
        loc = m.decode(paddr)
        assert (d.node, d.channel, d.rank, d.bank) == (
            loc.node, loc.channel, loc.rank, loc.bank
        )

    def test_page_offset_invariance(self, mapping):
        """Every byte of a frame decodes to the frame's cached route."""
        pfn = 1234
        d = mapping.frame_decode(pfn)
        base = pfn << mapping.page_bits
        for off in (0, 63, 64, mapping.page_bytes - 1):
            assert mapping.bank_color(base + off) == d.bank_color
            assert mapping.llc_color(base + off) == d.llc_color


class TestFrameDecodeCache:
    def test_memo_is_populated_and_reused(self, mapping):
        mapping.clear_frame_decode_cache()
        assert mapping.frame_decode_cache_size == 0
        first = mapping.frame_decode(77)
        assert mapping.frame_decode_cache_size == 1
        # Same object back, not merely an equal one: a dict hit.
        assert mapping.frame_decode(77) is first
        assert mapping.frame_decode_cache_size == 1
        mapping.frame_decode(78)
        assert mapping.frame_decode_cache_size == 2

    def test_clear_empties_the_memo(self, mapping):
        mapping.frame_decode(5)
        mapping.frame_decode(6)
        assert mapping.frame_decode_cache_size >= 2
        mapping.clear_frame_decode_cache()
        assert mapping.frame_decode_cache_size == 0
        # Still correct after clearing.
        assert mapping.frame_decode(5).bank_color == mapping.frame_bank_color(5)

    def test_instances_do_not_share_entries(self):
        """A new mapping (different bit layout) must not see stale routes."""
        full = opteron_6128(256 * 1024 * 1024).mapping
        scaled = opteron_6128_scaled(256 * 1024 * 1024).mapping
        pfn = 99
        a = full.frame_decode(pfn)
        b = scaled.frame_decode(pfn)
        assert a is not b
        # Each memo answers for its own layout.
        assert a.bank_color == full.frame_bank_color(pfn)
        assert b.bank_color == scaled.frame_bank_color(pfn)
        # Clearing one instance leaves the other's memo intact.
        full.clear_frame_decode_cache()
        assert full.frame_decode_cache_size == 0
        assert scaled.frame_decode_cache_size == 1

    def test_equal_layouts_still_have_private_memos(self):
        m1 = opteron_6128(256 * 1024 * 1024).mapping
        m2 = opteron_6128(256 * 1024 * 1024).mapping
        m1.frame_decode(3)
        assert m1.frame_decode_cache_size == 1
        assert m2.frame_decode_cache_size == 0
