"""Aggregation over repeated runs.

The paper repeats every experiment ten times and reports averages with
min/max error bars; these helpers compute exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class Aggregate:
    """Mean with min/max bounds over repetitions."""

    mean: float
    min: float
    max: float
    n: int

    @property
    def spread(self) -> float:
        """max - min: the paper's error-bar height (run-to-run deviation)."""
        return self.max - self.min

    def scaled(self, factor: float) -> "Aggregate":
        return Aggregate(
            self.mean * factor, self.min * factor, self.max * factor, self.n
        )


def aggregate(values: Sequence[float]) -> Aggregate:
    """Aggregate one metric over repetitions.

    The mean is clamped into [min, max]: float summation can round the
    mean of identical values a ULP below them, which would violate the
    ordering invariant downstream consumers rely on.
    """
    if not values:
        raise ValueError("cannot aggregate zero values")
    lo, hi = min(values), max(values)
    mean_value = sum(values) / len(values)
    return Aggregate(
        mean=min(max(mean_value, lo), hi),
        min=lo,
        max=hi,
        n=len(values),
    )


def mean(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("mean of empty sequence")
    return sum(values) / len(values)
