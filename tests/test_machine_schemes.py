"""Property suite for the mapping-scheme layer and the platform family.

For every scheme x preset: decode∘compose round-trips, DRAM field bits
are mutually disjoint, the scalar decode agrees element-wise with the
vectorised colors and the per-frame color table, and the bank-color
space is exactly the node x channel x rank x bank product.  Scheme-built
mappings additionally pin the structural contract the kernel relies on
(node field on top, LLC colors contiguous at the page offset), and the
``OpteronFig5`` scheme must reproduce the paper's literal Fig. 5 bit
placement.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.address import (
    SCHEMES,
    AddressMapping,
    build_mapping,
    contiguous,
)
from repro.machine.pci import encode_config_space, probe_address_mapping
from repro.machine.presets import PLATFORMS
from repro.util.units import MIB

#: preset name -> mapping (module scope: built once for the whole suite).
PRESET_MAPPINGS = {
    name: factory(256 * MIB).mapping for name, factory in PLATFORMS.items()
}


@st.composite
def scheme_mappings(draw):
    """A random (scheme, geometry) pair that builds successfully."""
    name = draw(st.sampled_from(sorted(SCHEMES)))
    if name == "OpteronFig5":
        # The split bank field is the part's literal layout: 3 bank bits.
        bank_bits = 3
        channel_bits = draw(st.integers(1, 2))
        rank_bits = draw(st.integers(1, 2))
    else:
        bank_bits = draw(st.integers(1, 4))
        channel_bits = draw(st.integers(1, 3))
        rank_bits = draw(st.integers(1, 2))
    node_bits = draw(st.integers(1, 3))
    llc_bits = draw(st.integers(2, 5))
    # Enough room for the widest layout (up to 4 column-gap bits in
    # OpteronFig5) + the top-of-memory node field.
    floor = 12 + 4 + channel_bits + rank_bits + bank_bits + node_bits
    total_bits = draw(st.integers(floor, floor + 4))
    return build_mapping(
        name,
        total_bits=total_bits,
        node_bits=node_bits,
        channel_bits=channel_bits,
        rank_bits=rank_bits,
        bank_bits=bank_bits,
        llc_color_bits=llc_bits,
        line_bits=6,
    )


def _any_mapping_ids():
    return sorted(PRESET_MAPPINGS)


@pytest.mark.parametrize("preset", _any_mapping_ids())
class TestPresetMappings:
    def test_field_bits_disjoint(self, preset):
        m = PRESET_MAPPINGS[preset]
        all_bits = [p for ps in m.fields.values() for p in ps]
        assert len(all_bits) == len(set(all_bits)), (
            f"{preset}: DRAM field bits overlap"
        )

    def test_bank_color_space_is_field_product(self, preset):
        m = PRESET_MAPPINGS[preset]
        assert m.num_bank_colors == (
            m.num_nodes * m.num_channels * m.num_ranks * m.num_banks
        )
        bank, _ = m.frame_color_table()
        counts = np.bincount(bank, minlength=m.num_bank_colors)
        assert (counts == m.num_frames // m.num_bank_colors).all(), (
            f"{preset}: frames not evenly striped over bank colors"
        )

    def test_compose_decode_roundtrip(self, preset):
        m = PRESET_MAPPINGS[preset]
        rng = np.random.default_rng(7)
        for _ in range(64):
            node = int(rng.integers(m.num_nodes))
            ch = int(rng.integers(m.num_channels))
            rank = int(rng.integers(m.num_ranks))
            bank = int(rng.integers(m.num_banks))
            free_bits = m.total_bits - sum(
                len(ps) for ps in m.fields.values()
            )
            rest = int(rng.integers(1 << min(free_bits, 62)))
            paddr = m.compose(node, ch, rank, bank, rest)
            loc = m.decode(paddr)
            assert (loc.node, loc.channel, loc.rank, loc.bank) == (
                node, ch, rank, bank
            )

    def test_frame_decode_matches_decode_batch(self, preset):
        m = PRESET_MAPPINGS[preset]
        bank, llc = m.frame_color_table()
        rng = np.random.default_rng(13)
        for pfn in rng.integers(m.num_frames, size=256).tolist():
            loc = m.decode(pfn << m.page_bits)
            assert bank[pfn] == m.compose_bank_color(
                loc.node, loc.channel, loc.rank, loc.bank
            )
            assert llc[pfn] == m.llc_color(pfn << m.page_bits)

    def test_pci_probe_roundtrip(self, preset):
        """Every family mapping must survive the BIOS encode / boot probe."""
        m = PRESET_MAPPINGS[preset]
        assert probe_address_mapping(encode_config_space(m)) == m

    def test_frame_colors_invariant(self, preset):
        assert PRESET_MAPPINGS[preset].frame_colors_invariant()


class TestSchemeBuilder:
    @settings(max_examples=60, deadline=None)
    @given(scheme_mappings())
    def test_built_mapping_is_valid(self, m):
        # structural contract: node on top, llc contiguous at page offset
        node = m.fields["node"]
        assert node == tuple(
            range(m.total_bits - len(node), m.total_bits)
        )
        assert m.llc_color_positions == contiguous(
            m.page_bits, len(m.llc_color_positions)
        )
        assert m.frame_colors_invariant()
        all_bits = [p for ps in m.fields.values() for p in ps]
        assert len(all_bits) == len(set(all_bits))
        assert m.num_bank_colors == (
            m.num_nodes * m.num_channels * m.num_ranks * m.num_banks
        )

    @settings(max_examples=30, deadline=None)
    @given(scheme_mappings(), st.data())
    def test_built_mapping_roundtrip_and_batch(self, m, data):
        node = data.draw(st.integers(0, m.num_nodes - 1))
        ch = data.draw(st.integers(0, m.num_channels - 1))
        rank = data.draw(st.integers(0, m.num_ranks - 1))
        bank = data.draw(st.integers(0, m.num_banks - 1))
        paddr = m.compose(node, ch, rank, bank, 0)
        loc = m.decode(paddr)
        assert (loc.node, loc.channel, loc.rank, loc.bank) == (
            node, ch, rank, bank
        )
        pfns = data.draw(st.lists(
            st.integers(0, m.num_frames - 1), min_size=1, max_size=64
        ))
        paddrs = np.asarray(pfns, dtype=np.int64) << m.page_bits
        bank_colors = m.bank_color_vec(paddrs).tolist()
        llc_colors = m.llc_color_vec(paddrs).tolist()
        for i, p in enumerate(paddrs.tolist()):
            assert bank_colors[i] == m.bank_color(p)
            assert llc_colors[i] == m.llc_color(p)

    def test_opteron_fig5_scheme_reproduces_paper_layout(self):
        m = build_mapping(
            "OpteronFig5", total_bits=33, node_bits=2, channel_bits=1,
            rank_bits=1, bank_bits=3, llc_color_bits=5, line_bits=7,
        )
        assert m == AddressMapping(
            total_bits=33, line_bits=7, page_bits=12,
            fields={
                "node": contiguous(31, 2),
                "channel": contiguous(19, 1),
                "rank": contiguous(20, 1),
                "bank": (15, 16, 18),
            },
            llc_color_positions=contiguous(12, 5),
            row_bits_start=12,
        )

    def test_scheme_names_cover_the_gem5_layouts(self):
        for name in ("RoCoRaBaCh", "RoRaBaCoCh", "RoRaBaChCo", "OpteronFig5"):
            assert name in SCHEMES

    def test_unknown_scheme_raises(self):
        with pytest.raises(ValueError, match="unknown mapping scheme"):
            build_mapping(
                "NoSuchScheme", total_bits=28, node_bits=1, channel_bits=1,
                rank_bits=1, bank_bits=1, llc_color_bits=2, line_bits=6,
            )

    def test_unconsumed_bank_bits_raise(self):
        # OpteronFig5's layout places exactly 3 bank bits.
        with pytest.raises(ValueError, match="not placed by layout"):
            build_mapping(
                "OpteronFig5", total_bits=33, node_bits=2, channel_bits=1,
                rank_bits=1, bank_bits=4, llc_color_bits=5, line_bits=7,
            )

    def test_field_overflow_into_node_raises(self):
        with pytest.raises(ValueError, match="node field"):
            build_mapping(
                "RoCoRaBaCh", total_bits=20, node_bits=1, channel_bits=3,
                rank_bits=2, bank_bits=4, llc_color_bits=2, line_bits=6,
            )
