"""Unit tests for size formatting."""

from repro.util.units import GIB, KIB, MIB, format_size


class TestFormatSize:
    def test_bytes(self):
        assert format_size(17) == "17B"

    def test_kib(self):
        assert format_size(4 * KIB) == "4.0KiB"

    def test_mib(self):
        assert format_size(12 * MIB) == "12.0MiB"

    def test_roundtrip_order(self):
        assert "GiB" in format_size(3 * GIB)
