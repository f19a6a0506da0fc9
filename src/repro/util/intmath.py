"""Integer bit-manipulation helpers used by the physical address codec.

All functions operate on non-negative Python integers (arbitrary width),
mirroring the bit-field arithmetic a memory controller performs on physical
addresses.
"""

from __future__ import annotations


def mask(nbits: int) -> int:
    """Return an ``nbits``-wide mask of ones.

    >>> mask(4)
    15
    """
    if nbits < 0:
        raise ValueError(f"mask width must be non-negative, got {nbits}")
    return (1 << nbits) - 1


def is_power_of_two(value: int) -> bool:
    """True when ``value`` is a positive power of two."""
    return value > 0 and (value & (value - 1)) == 0


def log2_exact(value: int) -> int:
    """Return ``log2(value)`` for an exact power of two; raise otherwise.

    Hardware geometry parameters (bank counts, line sizes, page sizes) must
    be powers of two for bit-field address decoding to be well defined, so
    callers use this to validate while converting to a bit width.
    """
    if not is_power_of_two(value):
        raise ValueError(f"{value} is not a power of two")
    return value.bit_length() - 1
