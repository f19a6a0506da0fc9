"""Per-core stride prefetcher (off by default; ablation feature).

The paper's synthetic benchmark is built to *defeat* hardware prefetching
(§V-A: the alternating stride M, M+1C, M-1C, M+2C ... "defeats hardware
prefetching").  With this prefetcher enabled, that claim becomes
demonstrable in the simulator: a plain sequential sweep gets its DRAM
latency hidden, while the alternating-stride pattern does not.

Model: a classic reference-prediction table of one entry per core.  When
two consecutive demand accesses from a core differ by the same line
stride, the prefetcher issues ``depth`` prefetches ahead.  Prefetched
lines are installed into L2 (and the LLC); the DRAM bank/channel pay
occupancy for each prefetch, but the demand access does not wait — that
is precisely how prefetching converts latency into bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class StridePrefetcher:
    """Stride detector + degree-``depth`` prefetch generator for one core.

    Attributes:
        depth: prefetches issued per confirmed-stride access.
        max_stride_lines: strides beyond this are treated as random.
    """

    depth: int = 2
    max_stride_lines: int = 8
    _last_line: int | None = None
    _last_stride: int = 0
    _confirmed: bool = False
    issued: int = 0
    useful: int = 0  # filled by the hierarchy on prefetch hits

    def observe(self, line_addr: int) -> list[int]:
        """Record a demand access; return line addresses to prefetch."""
        prefetches: list[int] = []
        if self._last_line is not None:
            stride = line_addr - self._last_line
            if (
                stride != 0
                and abs(stride) <= self.max_stride_lines
                and stride == self._last_stride
            ):
                # Stride confirmed twice in a row: prefetch ahead.
                self._confirmed = True
                prefetches = [
                    line_addr + stride * k for k in range(1, self.depth + 1)
                ]
                self.issued += len(prefetches)
            else:
                self._confirmed = False
            self._last_stride = stride
        self._last_line = line_addr
        return prefetches
