"""Shared utilities: integer bit math, units, seeded RNG streams."""

from repro.util.intmath import is_power_of_two, log2_exact, mask
from repro.util.rng import RngStream, derive_seed
from repro.util.units import GIB, KIB, MIB

__all__ = [
    "is_power_of_two",
    "log2_exact",
    "mask",
    "RngStream",
    "derive_seed",
    "KIB",
    "MIB",
    "GIB",
]
