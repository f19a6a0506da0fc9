"""Element-wise pins of ``repro.cache.batch`` kernels to scalar Cache.

Each batch kernel mirrors a scalar method (named in its docstring); the
engine's batched replay is only bit-identical if these agree on every
element, so the tests compare them directly rather than re-deriving the
math.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.batch import set_index_batch
from repro.cache.cache import Cache
from repro.machine.topology import CacheGeometry

LINE_ADDRS = st.lists(
    st.integers(min_value=0, max_value=(1 << 40) - 1), min_size=1, max_size=128
)


def _geometry(num_sets: int, ways: int = 4) -> CacheGeometry:
    return CacheGeometry(
        size_bytes=num_sets * ways * 64, ways=ways, line_bytes=64
    )


class TestSetIndexBatch:
    @settings(max_examples=60, deadline=None)
    @given(lines=LINE_ADDRS, sets_log2=st.integers(min_value=1, max_value=12),
           hashed=st.booleans())
    def test_matches_scalar_set_of_line(self, lines, sets_log2, hashed):
        geom = _geometry(1 << sets_log2)
        cache = Cache(geom, hash_index=hashed)
        got = set_index_batch(
            np.asarray(lines, dtype=np.int64),
            geom.index_bits,
            geom.num_sets - 1,
            hashed,
        )
        for line, idx in zip(lines, got.tolist()):
            assert idx == cache.set_of_line(line)

    def test_empty(self):
        got = set_index_batch(np.asarray([], dtype=np.int64), 4, 15, True)
        assert got.size == 0
