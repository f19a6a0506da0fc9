"""Byte-size units and formatting."""

from __future__ import annotations

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB


def format_size(nbytes: int) -> str:
    """Render a byte count with a binary suffix (``12.0MiB``)."""
    if nbytes < 1024:
        return f"{int(nbytes)}B"
    value = nbytes / 1024
    for suffix in ("KiB", "MiB", "GiB"):
        if value < 1024:
            return f"{value:.1f}{suffix}"
        value /= 1024
    return f"{value:.1f}TiB"
