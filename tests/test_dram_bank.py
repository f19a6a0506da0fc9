"""Unit tests for the bank row-buffer rule, driven through DramSystem's
demand and write-back stages on the ``tiny`` preset.

Every request goes to bank color ``BC`` on node 0 from core 0, so it
takes the local path: controller -> channel -> bank, no link.  A
request's bank start is therefore ``now + latency - service``.
"""

import numpy as np
import pytest

from repro.dram.system import DramSystem, RowKind
from repro.dram.timing import DramTiming

T = DramTiming()
BC = 0  # a bank color on node 0, local to core 0
#: Row outcome and array service of the local path's outcome codes.
OUTCOME = {
    3: (RowKind.MISS, T.row_miss),
    4: (RowKind.HIT, T.row_hit),
    5: (RowKind.CONFLICT, T.row_conflict),
}


@pytest.fixture
def dram(tiny):
    return DramSystem(tiny.mapping, tiny.topology, T)


def line_of(dram, row):
    """A line whose row-buffer tag is ``row``: the demand stage tags a
    line with its bits above the mapping's row start."""
    mapping = dram.mapping
    return row << (mapping.row_bits_start - mapping.line_bits)


def access(dram, row, now, is_write=False):
    """One demand access to row ``row`` of bank ``BC``; returns
    ``(start, service, kind)``: when the bank began serving, its array
    service time and the row outcome."""
    latency, code, _ = dram.demand(BC, line_of(dram, row), 0, now, is_write)
    kind, service = OUTCOME[code]
    return now + latency - service, service, kind


def bank_lines(dram):
    """Two lines of bank ``BC`` in different rows, with their row tags."""
    mapping = dram.mapping
    frames = np.flatnonzero(np.asarray(dram.frame_bank) == BC)
    lines, rows = [], []
    for frame in frames.tolist():
        line = frame << (mapping.page_bits - mapping.line_bits)
        row = line >> (mapping.row_bits_start - mapping.line_bits)
        if row not in rows:
            lines.append(line)
            rows.append(row)
        if len(lines) == 2:
            return lines, rows
    raise AssertionError("bank has fewer than two rows")


class TestRowBuffer:
    def test_first_access_is_closed_miss(self, dram):
        start, service, kind = access(dram, row=5, now=0.0)
        assert kind is RowKind.MISS
        assert service == T.row_miss
        # Idle controller and channel: the bank starts right after the
        # controller's pipeline latency.
        assert start == T.ctrl_overhead

    def test_same_row_hits(self, dram):
        access(dram, 5, 0.0)
        _, service, kind = access(dram, 5, 1000.0)
        assert kind is RowKind.HIT
        assert service == T.row_hit

    def test_other_row_conflicts(self, dram):
        access(dram, 5, 0.0)
        _, service, kind = access(dram, 6, 1000.0)
        assert kind is RowKind.CONFLICT
        assert service == T.row_conflict

    def test_interleaved_rows_thrash(self, dram):
        """Two tasks alternating rows turn each other's hits into conflicts
        (the paper's Fig. 8 scenario)."""
        access(dram, 1, 0.0)
        kinds = []
        t = 1000.0
        for row in (2, 1, 2, 1):
            _, _, kind = access(dram, row, t)
            kinds.append(kind)
            t += 1000.0
        assert kinds == [RowKind.CONFLICT] * 4

    def test_stats_counts(self, dram):
        # The stage returns the outcome; its caller counts it per bank.
        (a, b), _ = bank_lines(dram)
        line_bits = dram.mapping.line_bits
        for line, now in ((a, 0.0), (a, 1000.0), (b, 2000.0)):
            dram.access(line << line_bits, 0, now)
        counts = (dram.bank_misses, dram.bank_hits, dram.bank_conflicts)
        assert tuple(c[BC] for c in counts) == (1, 1, 1)
        assert sum(sum(c) for c in counts) == 3


class TestQueueing:
    def test_back_to_back_requests_queue(self, dram):
        start1, service1, _ = access(dram, 1, 0.0)
        # Second request arrives while the bank is still busy.
        start2, _, _ = access(dram, 1, 1.0)
        assert start2 == start1 + service1

    def test_write_recovery_extends_occupancy(self, dram):
        start1, _, _ = access(dram, 1, 0.0, True)
        start2, _, _ = access(dram, 1, 0.0, False)
        assert start2 == start1 + T.row_miss + T.write_recovery

    def test_idle_bank_serves_immediately(self, dram):
        access(dram, 1, 0.0)
        start, _, _ = access(dram, 1, 10_000.0)
        assert start == 10_000.0 + T.ctrl_overhead


class TestRefresh:
    def test_refresh_closes_row(self, dram):
        access(dram, 7, 0.0)
        # Crossing a tREFI boundary flushes the row buffer.
        _, _, kind = access(dram, 7, T.refresh_interval + 1.0)
        assert kind is RowKind.MISS

    def test_no_refresh_within_interval(self, dram):
        access(dram, 7, 10.0)
        _, _, kind = access(dram, 7, T.refresh_interval * 0.5)
        assert kind is RowKind.HIT


class TestWriteback:
    def test_writeback_occupies_but_keeps_row(self, dram):
        (_, other), (row, _) = bank_lines(dram)
        access(dram, row, 0.0)
        busy_before = dram.bank_busy[BC]
        dram.writeback(other, busy_before)
        assert dram.bank_busy[BC] > busy_before
        # Posted writes don't steal the open row (write-queue model).
        assert dram.bank_row[BC] == row

    def test_writeback_occupancy_scaled(self, dram):
        (line, _), _ = bank_lines(dram)
        t0 = dram.bank_busy[BC]
        dram.writeback(line, 0.0)
        occupancy = dram.bank_busy[BC] - max(t0, 0.0)
        full = (T.row_miss + T.write_recovery)
        assert occupancy == pytest.approx(full * T.writeback_occupancy_scale)


class TestTimingValidation:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            DramTiming(row_hit=50, row_miss=40)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            DramTiming(ctrl_overhead=-1)

    def test_refresh_positive(self):
        with pytest.raises(ValueError):
            DramTiming(refresh_interval=0)

    def test_writeback_scale_range(self):
        with pytest.raises(ValueError):
            DramTiming(writeback_occupancy_scale=1.5)
