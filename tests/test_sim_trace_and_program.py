"""Unit tests for traces, sections, and program structure."""

import numpy as np
import pytest

from repro.sim.barrier import Program, Section
from repro.sim.trace import Trace


def make_trace(n=10, think=1.0):
    return Trace(
        vaddrs=np.arange(n, dtype=np.int64) * 64,
        writes=np.zeros(n, dtype=bool),
        think_ns=think,
    )


class TestTrace:
    def test_length_and_lists(self):
        t = make_trace(5, think=2)
        vas, writes, think = t.as_lists()
        assert len(vas) == len(writes) == 5
        assert think == 2.0 and type(think) is float
        assert isinstance(vas[0], int)
        assert t.total_think_ns == 10.0

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            Trace(np.zeros(3, np.int64), np.zeros(2, bool))

    @pytest.mark.parametrize("think", [np.array([1.0, 2.0, 3.0]),
                                       np.array([1.0])])
    def test_think_array_rejected(self, think):
        """One think time per trace: an array, even of one element,
        raises a one-line TypeError."""
        with pytest.raises(TypeError) as err:
            Trace(np.zeros(3, np.int64), np.zeros(3, bool), think_ns=think)
        assert "\n" not in str(err.value) and "think_ns" in str(err.value)


class TestSection:
    def test_serial_must_be_master_only(self):
        with pytest.raises(ValueError):
            Section(kind="serial", traces={1: make_trace()})

    def test_parallel_needs_traces(self):
        with pytest.raises(ValueError):
            Section(kind="parallel", traces={})

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            Section(kind="magic", traces={0: make_trace()})

    def test_accesses_count(self):
        s = Section("parallel", {0: make_trace(3), 1: make_trace(4)})
        assert s.accesses == 7


class TestProgram:
    def test_thread_indices_validated(self):
        s = Section("parallel", {5: make_trace()})
        with pytest.raises(ValueError):
            Program(sections=[s], nthreads=2)

    def test_totals(self):
        p = Program(
            sections=[
                Section("serial", {0: make_trace(2)}),
                Section("parallel", {0: make_trace(3), 1: make_trace(3)}),
            ],
            nthreads=2,
        )
        assert p.total_accesses == 8
        assert len(p.parallel_sections) == 1
