"""Unit + property tests for the physical address codec (Eq. 1, LLC color)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.machine.address import AddressMapping, contiguous
from repro.machine.presets import PLATFORMS, opteron_6128, tiny_machine


@pytest.fixture
def mapping():
    return opteron_6128().mapping


class TestGeometry:
    def test_color_counts(self, mapping):
        assert mapping.num_bank_colors == 128  # paper: 2^7 banks
        assert mapping.num_llc_colors == 32  # paper: 2^5 colors
        assert mapping.num_nodes == 4
        assert mapping.bank_colors_per_node == 32

    def test_sizes(self, mapping):
        assert mapping.page_bytes == 4096
        assert mapping.line_bytes == 128
        assert mapping.num_frames * mapping.page_bytes == mapping.memory_bytes

    def test_field_validation_overlap(self):
        with pytest.raises(ValueError):
            AddressMapping(
                total_bits=30, line_bits=6, page_bits=12,
                fields={
                    "node": (20,), "channel": (20,),  # overlapping bit
                    "rank": (21,), "bank": (22,),
                },
                llc_color_positions=(12, 13),
            )

    def test_row_inside_line_offset_rejected(self):
        fields = {"node": (20,), "channel": (21,), "rank": (22,), "bank": (23,)}
        with pytest.raises(ValueError, match="inside the 6-bit line offset"):
            AddressMapping(
                total_bits=30, line_bits=6, page_bits=12, fields=fields,
                llc_color_positions=(12, 13), row_bits_start=5,
            )
        # A row that starts exactly at the line offset is the narrowest legal one.
        m = AddressMapping(
            total_bits=30, line_bits=6, page_bits=12, fields=fields,
            llc_color_positions=(12, 13), row_bits_start=6,
        )
        assert m.row_bits_start == 6

    def test_field_names_enforced(self):
        with pytest.raises(ValueError):
            AddressMapping(
                total_bits=30, line_bits=6, page_bits=12,
                fields={"node": (20,), "bank": (22,)},
                llc_color_positions=(12,),
            )


class TestBankColor:
    def test_eq1_mixed_radix(self, mapping):
        # bc = ((node*NC + ch)*NR + rank)*NB + bank
        assert mapping.compose_bank_color(0, 0, 0, 0) == 0
        assert mapping.compose_bank_color(0, 0, 0, 7) == 7
        assert mapping.compose_bank_color(0, 0, 1, 0) == 8
        assert mapping.compose_bank_color(0, 1, 0, 0) == 16
        assert mapping.compose_bank_color(1, 0, 0, 0) == 32
        assert mapping.compose_bank_color(3, 1, 1, 7) == 127

    def test_split_roundtrip(self, mapping):
        for color in range(mapping.num_bank_colors):
            parts = mapping.split_bank_color(color)
            assert mapping.compose_bank_color(*parts) == color

    def test_node_ranges(self, mapping):
        assert list(mapping.bank_colors_of_node(0)) == list(range(32))
        assert list(mapping.bank_colors_of_node(3)) == list(range(96, 128))
        for color in mapping.bank_colors_of_node(2):
            assert mapping.node_of_bank_color(color) == 2

    def test_out_of_range(self, mapping):
        with pytest.raises(ValueError):
            mapping.split_bank_color(128)


class TestDecodeCompose:
    def test_roundtrip_fields(self, mapping):
        paddr = mapping.compose(2, 1, 0, 5, 0xABC)
        loc = mapping.decode(paddr)
        assert (loc.node, loc.channel, loc.rank, loc.bank) == (2, 1, 0, 5)

    def test_bank_color_consistency(self, mapping):
        paddr = mapping.compose(1, 0, 1, 3, 999)
        assert mapping.bank_color(paddr) == mapping.compose_bank_color(1, 0, 1, 3)

    def test_rest_too_large(self, mapping):
        free_bits = mapping.total_bits - sum(
            len(p) for p in mapping.fields.values()
        )
        with pytest.raises(ValueError):
            mapping.compose(0, 0, 0, 0, 1 << free_bits)

    def test_paddr_range_check(self, mapping):
        with pytest.raises(ValueError):
            mapping.decode(mapping.memory_bytes)

    @given(st.integers(0, 2**20 - 1))
    def test_llc_color_is_bits_12_16(self, page_index):
        mapping = opteron_6128().mapping
        paddr = (page_index << 12) % mapping.memory_bytes
        assert mapping.llc_color(paddr) == (paddr >> 12) & 0x1F


class TestFrameColors:
    def test_frame_invariance(self, mapping):
        assert mapping.frame_colors_invariant()
        # Every address inside one frame shares the frame's colors.
        pfn = 12345
        base = pfn << mapping.page_bits
        for offset in (0, 128, 4095):
            assert mapping.bank_color(base + offset) == mapping.frame_bank_color(pfn)
            assert mapping.llc_color(base + offset) == mapping.frame_llc_color(pfn)

    def test_non_invariant_detected(self):
        m = AddressMapping(
            total_bits=26, line_bits=6, page_bits=12,
            fields={
                "node": (25,), "channel": (7,),  # channel inside the page!
                "rank": (16,), "bank": (17, 18),
            },
            llc_color_positions=(12, 13),
        )
        assert not m.frame_colors_invariant()

    def test_frame_color_table_matches_scalar(self):
        """Every platform's table and gather agree with the scalar codec."""
        for name in sorted(PLATFORMS):
            mapping = PLATFORMS[name]().mapping
            bank, llc = mapping.frame_color_table()
            sample = np.random.default_rng(0).integers(mapping.num_frames, size=64)
            pfns = [0, 1, mapping.num_frames - 1, *sample.tolist()]
            for pfn in pfns:
                assert bank[pfn] == mapping.frame_bank_color(pfn), name
                assert llc[pfn] == mapping.frame_llc_color(pfn), name
            assert mapping.frame_bank_colors(np.asarray(pfns)).tolist() == [
                mapping.frame_bank_color(pfn) for pfn in pfns
            ], name
            assert mapping.frame_bank_colors(np.asarray([], np.int64)).size == 0
            for bad in (-1, mapping.num_frames):
                with pytest.raises(ValueError, match="outside physical memory"):
                    mapping.frame_bank_colors(np.asarray([bad]))

    def test_color_distribution_uniform(self):
        mapping = tiny_machine().mapping
        bank, llc = mapping.frame_color_table()
        counts = np.bincount(bank, minlength=mapping.num_bank_colors)
        assert (counts == counts[0]).all()
        counts = np.bincount(llc, minlength=mapping.num_llc_colors)
        assert (counts == counts[0]).all()

    def test_populated_combos_are_exactly_the_compatible_ones(self):
        mapping = tiny_machine().mapping
        bank, llc = mapping.frame_color_table()
        combos = set(zip(bank.tolist(), llc.tolist()))
        expected = {
            (bc, lc)
            for bc in range(mapping.num_bank_colors)
            for lc in range(mapping.num_llc_colors)
            if mapping.colors_compatible(bc, lc)
        }
        assert combos == expected
        # Each combo holds the same number of frames.
        from collections import Counter

        counts = Counter(zip(bank.tolist(), llc.tolist()))
        assert set(counts.values()) == {mapping.frames_per_combo()}


class TestVectorised:
    def test_bank_color_vec_matches_scalar(self, mapping):
        paddrs = np.array(
            [0, 4096, 123 << 12, mapping.memory_bytes - 4096], dtype=np.int64
        )
        vec = mapping.bank_color_vec(paddrs)
        for p, v in zip(paddrs.tolist(), vec.tolist()):
            assert mapping.bank_color(p) == v

    def test_llc_color_vec_matches_scalar(self, mapping):
        paddrs = np.arange(0, 1 << 20, 4096, dtype=np.int64)
        vec = mapping.llc_color_vec(paddrs)
        for p, v in zip(paddrs.tolist(), vec.tolist()):
            assert mapping.llc_color(p) == v


class TestRow:
    def test_row_is_frame_granular(self, mapping):
        # With row_bits_start=12 and frame-invariant fields, two addresses
        # share a row iff they share a frame (within the same bank).
        a = mapping.compose(0, 0, 0, 0, 0)
        b = a + 4096 * (1 << 0)  # next frame, possibly another bank
        assert mapping.row_of(a) == mapping.row_of(a + 128)
        assert mapping.row_of(a) != mapping.row_of(b) or (
            mapping.bank_color(a) != mapping.bank_color(b)
        )

    def test_contiguous_helper(self):
        assert contiguous(5, 3) == (5, 6, 7)


def _bit_oracle(mapping, bank_color, llc_color):
    """Per-pair reference for colors_compatible: every LLC color bit that
    a DRAM field also claims must equal that field's bit for bank_color."""
    node, channel, rank, bank = mapping.split_bank_color(bank_color)
    values = {"node": node, "channel": channel, "rank": rank, "bank": bank}
    for i, p in enumerate(mapping.llc_color_positions):
        for name, positions in mapping.fields.items():
            if p in positions:
                field_bit = (values[name] >> positions.index(p)) & 1
                if field_bit != (llc_color >> i) & 1:
                    return False
    return True


class TestCompatibilityTable:
    @pytest.mark.parametrize("name", sorted(PLATFORMS))
    def test_table_matches_bit_oracle(self, name):
        m = PLATFORMS[name]().mapping
        table = m.compatibility_table
        assert table.shape == (m.num_bank_colors, m.num_llc_colors)
        assert not table.flags.writeable
        for bc in range(m.num_bank_colors):
            expected = [
                lc for lc in range(m.num_llc_colors) if _bit_oracle(m, bc, lc)
            ]
            for lc in range(m.num_llc_colors):
                assert m.colors_compatible(bc, lc) == (lc in expected)
            assert m.compatible_llc_colors(bc) == tuple(expected)
        for lc in range(m.num_llc_colors):
            assert m.compatible_bank_colors(lc) == tuple(
                bc for bc in range(m.num_bank_colors) if _bit_oracle(m, bc, lc)
            )

    @pytest.mark.parametrize("name", sorted(PLATFORMS))
    def test_every_physical_pair_is_compatible(self, name):
        m = PLATFORMS[name]().mapping
        bank, llc = m.frame_color_table()
        assert m.compatibility_table[bank, llc].all()

    def test_out_of_range_llc_colors_raise(self, mapping):
        # The Opteron mapping has 32 LLC colors; 32 and 33 used to alias
        # to colors 0 and 1 because only the low five bits were compared.
        for bad in (32, 33, -1):
            with pytest.raises(ValueError):
                mapping.colors_compatible(0, bad)
            with pytest.raises(ValueError):
                mapping.compatible_bank_colors(bad)
            with pytest.raises(ValueError):
                mapping.compatible_bank_colors(bad, node=0)

    def test_out_of_range_bank_colors_raise(self, mapping):
        for bad in (128, -1):
            with pytest.raises(ValueError):
                mapping.colors_compatible(bad, 0)
            with pytest.raises(ValueError):
                mapping.compatible_llc_colors(bad)
        with pytest.raises(ValueError):
            mapping.compatible_bank_colors(0, node=4)
