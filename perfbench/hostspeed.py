"""Host-speed normalisation for the benchmark's time metrics.

On a shared host the same work can take 30% longer for a minute at a
time, slowing every process alike.  A fixed calibration loop, which
uses no code of the program, is timed at points through the measured
work; each stretch of work between two points is scaled by
``REF_S / (mean calibration time at its two ends)``.  The sum is the
time the work would have taken on a host where the loop takes exactly
``REF_S``: reference seconds.  A change to the program moves it as it
moves wall time; a slow spell of the host moves it much less.  The
calibration's own time is excluded from both the raw and the reference
totals.
"""

from __future__ import annotations

import time

#: Calibration-loop time that defines one reference second's speed.
REF_S = 0.010


def calibrate() -> None:
    """One pass of a fixed dict-and-integer loop (about 10 ms)."""
    table: dict[int, int] = {}
    x = 12345
    acc = 0.0
    for i in range(40000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = x & 0xFFFF
        hit = table.get(key)
        if hit is None:
            table[key] = i
        else:
            acc += hit * 0.5


class Clock:
    """Times a stretch of work in raw and in reference seconds.

    Call :meth:`mark` at the start, at points through the work, and at
    the end; :meth:`totals` returns ``(raw_s, ref_s)``.
    """

    def __init__(self) -> None:
        #: (time before, time after) each calibration.
        self.marks: list[tuple[float, float]] = []

    def mark(self) -> None:
        before = time.perf_counter()
        calibrate()
        self.marks.append((before, time.perf_counter()))

    def totals(self) -> tuple[float, float]:
        raw = ref = 0.0
        for (b0, a0), (b1, a1) in zip(self.marks, self.marks[1:]):
            work = b1 - a0
            raw += work
            ref += work * REF_S / (((a0 - b0) + (a1 - b1)) / 2)
        return raw, ref
