"""Unit tests for integer bit math."""

import pytest

from repro.util.intmath import is_power_of_two, log2_exact, mask


class TestMask:
    def test_zero_width(self):
        assert mask(0) == 0

    def test_small(self):
        assert mask(4) == 0b1111

    def test_wide(self):
        assert mask(64) == (1 << 64) - 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            mask(-1)


class TestPowersOfTwo:
    @pytest.mark.parametrize("v", [1, 2, 4, 1024, 2**40])
    def test_powers(self, v):
        assert is_power_of_two(v)
        assert log2_exact(v) == v.bit_length() - 1

    @pytest.mark.parametrize("v", [0, -2, 3, 6, 1023])
    def test_non_powers(self, v):
        assert not is_power_of_two(v)
        with pytest.raises(ValueError):
            log2_exact(v)
