"""Property tests pinning the batched frame colors to the scalar decode.

The batched engine plans whole sections through
:meth:`AddressMapping.frame_bank_colors`, a gather from the per-frame
:meth:`AddressMapping.frame_color_table`; its bit-identity contract is
that every element equals the bank color composed from the scalar
:meth:`AddressMapping.decode` of the frame's base address, and that the
LLC color table equals the scalar :meth:`AddressMapping.llc_color`.
These tests enforce that across all machine presets with
hypothesis-generated frame batches, plus the empty-batch,
single-element and out-of-range edge cases a vectorized gather is most
likely to get wrong.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.machine.presets import (
    opteron_4s,
    opteron_6128,
    opteron_6128_scaled,
    tiny_machine,
)

PRESETS = {
    "opteron_6128": opteron_6128,
    "opteron_6128_scaled": opteron_6128_scaled,
    "opteron_4s": opteron_4s,
    "tiny_machine": tiny_machine,
}


@pytest.fixture(params=sorted(PRESETS), name="mapping")
def mapping_fixture(request):
    return PRESETS[request.param]().mapping


def assert_matches_scalar(mapping, pfns):
    """Every batched color must equal the scalar decode, element-wise."""
    bank_colors = mapping.frame_bank_colors(np.asarray(pfns, dtype=np.int64))
    _, llc_table = mapping.frame_color_table()
    assert len(bank_colors) == len(pfns)
    for i, pfn in enumerate(pfns):
        loc = mapping.decode(pfn << mapping.page_bits)
        assert bank_colors[i] == mapping.compose_bank_color(
            loc.node, loc.channel, loc.rank, loc.bank
        )
        assert llc_table[pfn] == mapping.llc_color(pfn << mapping.page_bits)


class TestDecodeBatchProperties:
    # The mapping fixture is frozen (color-table memo aside), so reusing
    # it across generated examples is sound.
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_matches_scalar_on_random_batches(self, mapping, data):
        pfns = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=mapping.num_frames - 1),
                min_size=1,
                max_size=64,
            )
        )
        assert_matches_scalar(mapping, pfns)

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_single_element(self, mapping, data):
        pfn = data.draw(
            st.integers(min_value=0, max_value=mapping.num_frames - 1)
        )
        assert_matches_scalar(mapping, [pfn])

    def test_empty_batch(self, mapping):
        bank_colors = mapping.frame_bank_colors(np.asarray([], dtype=np.int64))
        assert bank_colors.size == 0

    def test_boundary_frames(self, mapping):
        """First and last frames of physical memory decode correctly."""
        assert_matches_scalar(mapping, [0, mapping.num_frames - 1])

    def test_duplicate_frames_decode_identically(self, mapping):
        pfn = mapping.num_frames // 2
        bank_colors = mapping.frame_bank_colors(
            np.asarray([pfn, pfn], dtype=np.int64)
        )
        assert bank_colors[0] == bank_colors[1]

    def test_out_of_range_rejected(self, mapping):
        with pytest.raises(ValueError, match="outside physical memory"):
            mapping.frame_bank_colors(
                np.asarray([mapping.num_frames], dtype=np.int64)
            )
        with pytest.raises(ValueError, match="outside physical memory"):
            mapping.frame_bank_colors(np.asarray([-1], dtype=np.int64))
