"""Unit tests for the workload generators."""

import numpy as np
import pytest

from repro.alloc.policies import Policy
from repro.core.session import ColoredTeam
from repro.core.tintmalloc import TintMalloc
from repro.machine.presets import tiny_machine
from repro.util.rng import RngStream
from repro.util.units import KIB
from repro.workloads.base import SpmdSpec, build_spmd_program
from repro.workloads.registry import BENCH_ORDER, WORKLOADS, get_workload, suite_of
from repro.workloads.synthetic import (
    SyntheticSpec,
    alternating_stride_lines,
    build_synthetic_program,
)

TINY_SPEC = SpmdSpec(
    name="probe",
    per_thread_bytes=16 * KIB,
    shared_bytes=8 * KIB,
    master_init_fraction=0.25,
    passes=1,
    compute_sections=2,
    pattern="stream",
    serial_accesses=10,
)


@pytest.fixture
def team(tm):
    return ColoredTeam.create(tm, [0, 1, 2, 3], Policy.BUDDY)


def build(spec, team, seed=0):
    return build_spmd_program(spec, team, RngStream(seed, "t"))


class TestProgramStructure:
    def test_sections_order(self, team):
        p = build(TINY_SPEC, team)
        labels = [s.label for s in p.sections]
        assert labels[0] == "serial-init"
        assert labels[1] == "parallel-init"
        assert "compute[0]" in labels and "compute[1]" in labels
        assert "serial[0]" in labels  # between the two compute sections

    def test_every_thread_computes(self, team):
        p = build(TINY_SPEC, team)
        compute = [s for s in p.sections if s.label.startswith("compute")]
        for s in compute:
            assert set(s.traces) == {0, 1, 2, 3}

    def test_compute_length(self, team):
        p = build(TINY_SPEC, team)
        lines = TINY_SPEC.per_thread_bytes // 64
        compute0 = next(s for s in p.sections if s.label == "compute[0]")
        assert len(compute0.traces[1]) == lines * TINY_SPEC.passes


class TestDataPlacement:
    def test_input_loaded_uncolored(self, tm):
        """Shared/master-init data is faulted before coloring applies."""
        team = ColoredTeam.create(tm, [0, 1, 2, 3], Policy.MEM_LLC)
        build(TINY_SPEC, team)
        space = tm.process.address_space
        pool = tm.kernel.pool
        master = team.master.task
        # Shared pages exist already and are NOT restricted to the
        # master's colors.
        shared_vma = next(
            v for v in space.vmas if v.label.endswith(":shared")
        )
        for vpn in range(shared_vma.start >> 12, shared_vma.end >> 12):
            assert space.page_table.get(vpn) is not None
        # Every build-time fault went down the UNCOLORED path, even though
        # the master's TCB carries colors for the rest of the run.
        assert master.colored
        assert master.colored_allocations == 0
        assert master.pages_allocated > 0
        assert pool is tm.kernel.pool  # sanity

    def test_worker_pages_fault_later_with_colors(self, tm):
        team = ColoredTeam.create(tm, [0, 1, 2, 3], Policy.MEM_LLC)
        p = build(TINY_SPEC, team)
        init = next(s for s in p.sections if s.label == "parallel-init")
        space = tm.process.address_space
        # Worker partitions (beyond the master slice) are unmapped at build.
        vaddr = int(init.traces[2].vaddrs[0])
        assert space.page_table.get(vaddr >> 12) is None


class TestPatterns:
    @pytest.mark.parametrize("pattern,chunk", [
        ("stream", 1), ("strided", 1), ("random", 4),
    ])
    def test_each_pass_covers_all_lines(self, team, pattern, chunk):
        spec = SpmdSpec(
            name="p", per_thread_bytes=16 * KIB, shared_bytes=0,
            master_init_fraction=0.0, passes=1, compute_sections=1,
            pattern=pattern, chunk_lines=chunk, shared_fraction=0.0,
            serial_accesses=0,
        )
        p = build(spec, team)
        compute = next(s for s in p.sections if s.label == "compute[0]")
        lines = spec.per_thread_bytes // 64
        base = int(min(compute.traces[0].vaddrs))
        seen = {(int(v) - base) // 64 for v in compute.traces[0].vaddrs}
        assert seen == set(range(lines))

    def test_strided_skips_a_stride_that_divides_the_partition(self, team):
        spec = SpmdSpec(
            name="p", per_thread_bytes=68 * 64, shared_bytes=0,
            master_init_fraction=0.0, passes=1, compute_sections=1,
            pattern="strided", shared_fraction=0.0, serial_accesses=0,
        )  # 68 lines: stride 17 would revisit 4 lines, 19 covers all
        trace = next(
            s for s in build(spec, team).sections if s.label == "compute[0]"
        ).traces[0]
        base = int(min(trace.vaddrs))
        lines = [(int(v) - base) // 64 for v in trace.vaddrs]
        assert sorted(lines) == list(range(68))
        assert lines[1] - lines[0] == 19

    def test_serial_work_without_shared_data_reads_master_partition(self, team):
        spec = SpmdSpec(
            name="p", per_thread_bytes=16 * KIB, shared_bytes=0,
            master_init_fraction=0.0, passes=1, compute_sections=2,
            pattern="stream", shared_fraction=0.0, serial_accesses=10,
        )
        p = build(spec, team)
        serial = next(s for s in p.sections if s.label == "serial[0]")
        master = next(
            s for s in p.sections if s.label == "compute[0]"
        ).traces[0].vaddrs
        assert set(serial.traces[0].vaddrs.tolist()) <= set(master.tolist())

    def test_random_chunks_are_contiguous_runs(self, team):
        spec = SpmdSpec(
            name="p", per_thread_bytes=16 * KIB, shared_bytes=0,
            master_init_fraction=0.0, passes=1, compute_sections=1,
            pattern="random", chunk_lines=8, shared_fraction=0.0,
            serial_accesses=0,
        )
        p = build(spec, team)
        trace = next(
            s for s in p.sections if s.label == "compute[0]"
        ).traces[0]
        deltas = np.diff(trace.vaddrs)
        # Most steps are +64 (within a chunk).
        assert (deltas == 64).mean() > 0.8

    def test_shared_fraction_mixed_in(self, team):
        spec = SpmdSpec(
            name="p", per_thread_bytes=16 * KIB, shared_bytes=8 * KIB,
            master_init_fraction=0.0, passes=1, compute_sections=1,
            pattern="stream", shared_fraction=0.3, serial_accesses=0,
        )
        p = build(spec, team)
        trace = next(
            s for s in p.sections if s.label == "compute[0]"
        ).traces[1]
        # Some accesses fall outside the thread's partition.
        partition_lo = int(trace.vaddrs.min())
        frac_outside = (
            (trace.vaddrs < partition_lo + 8 * KIB).mean()
        )
        assert frac_outside > 0.05

    def test_unknown_pattern_rejected(self):
        with pytest.raises(ValueError):
            SpmdSpec(name="x", per_thread_bytes=4096, shared_bytes=0,
                     pattern="zigzag")


class TestSeeding:
    def test_same_seed_same_traces(self, tm):
        team = ColoredTeam.create(tm, [0, 1], Policy.BUDDY)
        p1 = build(TINY_SPEC, team, seed=3)
        team2 = ColoredTeam.create(
            TintMalloc(machine=tiny_machine()), [0, 1], Policy.BUDDY
        )
        p2 = build(TINY_SPEC, team2, seed=3)
        for s1, s2 in zip(p1.sections, p2.sections):
            for tid in s1.traces:
                # Same shape and same offsets relative to the base.
                v1 = s1.traces[tid].vaddrs - s1.traces[tid].vaddrs.min()
                v2 = s2.traces[tid].vaddrs - s2.traces[tid].vaddrs.min()
                assert (v1 == v2).all()

    def test_scaled_shrinks(self):
        spec = get_workload("lbm")
        small = spec.scaled(0.25)
        assert small.per_thread_bytes == spec.per_thread_bytes // 4
        assert small.name == spec.name


class TestRegistry:
    def test_all_six_present(self):
        assert set(BENCH_ORDER) == set(WORKLOADS)
        assert len(BENCH_ORDER) == 6

    def test_suites(self):
        assert suite_of("lbm") == "spec"
        assert suite_of("freqmine") == "parsec"

    def test_unknown_raises(self):
        with pytest.raises(KeyError):
            get_workload("doom")


class TestSynthetic:
    def test_alternating_stride_covers_once(self):
        for n in (2, 7, 64, 101):
            order = alternating_stride_lines(n)
            assert sorted(order.tolist()) == list(range(n))

    def test_alternating_stride_starts_mid(self):
        order = alternating_stride_lines(100)
        assert order[0] == 50
        assert set(order[:3].tolist()) == {50, 51, 49}

    def test_program_one_parallel_section(self, tm):
        team = ColoredTeam.create(tm, [0, 1], Policy.BUDDY)
        spec = SyntheticSpec(per_thread_bytes=64 * KIB)
        p = build_synthetic_program(spec, team)
        assert len(p.sections) == 1
        assert p.sections[0].kind == "parallel"
        # All writes, one access per line.
        trace = p.sections[0].traces[0]
        assert trace.writes.all()
        assert len(trace) == 64 * KIB // 64


class TestSyntheticForMachine:
    """The 4-node calibration must rescale, not be assumed (regression:
    the spec once hardcoded the Opteron's node count)."""

    def test_identity_on_four_node_presets(self):
        from repro.machine.presets import opteron_6128_scaled

        base = SyntheticSpec()
        spec = SyntheticSpec.for_machine(opteron_6128_scaled())
        assert spec.per_thread_bytes == base.per_thread_bytes
        assert spec.think_ns == base.think_ns

    def test_two_node_preset_halves_the_footprint(self):
        from repro.machine.presets import modern_8ch, tiny_machine

        base = SyntheticSpec()
        for machine in (modern_8ch(), tiny_machine()):
            assert machine.topology.num_nodes == 2
            spec = SyntheticSpec.for_machine(machine)
            assert spec.per_thread_bytes == base.per_thread_bytes // 2

    def test_eight_node_preset_doubles_the_footprint(self):
        from repro.machine.presets import opteron_4s

        machine = opteron_4s()
        assert machine.topology.num_nodes == 8
        spec = SyntheticSpec.for_machine(machine)
        assert spec.per_thread_bytes == SyntheticSpec().per_thread_bytes * 2

    def test_scale_composes_with_node_count_and_floors(self):
        from repro.machine.presets import modern_8ch

        spec = SyntheticSpec.for_machine(modern_8ch(), scale=0.05)
        base = SyntheticSpec()
        assert spec.per_thread_bytes == max(
            64 * KIB, int(base.per_thread_bytes * 0.05 * 2 / 4)
        )
        tiny = SyntheticSpec.for_machine(modern_8ch(), scale=1e-6)
        assert tiny.per_thread_bytes == 64 * KIB
