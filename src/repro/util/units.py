"""Byte-size units and formatting."""

from __future__ import annotations

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB


def format_size(nbytes: int) -> str:
    """Render a byte count with a binary suffix (``12.0MiB``)."""
    value = float(nbytes)
    for suffix in ("B", "KiB", "MiB", "GiB", "TiB"):
        if value < 1024 or suffix == "TiB":
            if suffix == "B":
                return f"{int(value)}B"
            return f"{value:.1f}{suffix}"
        value /= 1024
    raise AssertionError("unreachable")
