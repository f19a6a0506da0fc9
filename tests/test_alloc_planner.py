"""Unit tests for the color planners (paper §V-B partitioning rules)."""

import pytest

from repro.alloc.bpm import PlanError, bpm_assignments
from repro.alloc.planner import plan_colors, plan_is_disjoint
from repro.alloc.policies import Policy
from repro.machine.presets import opteron_6128


@pytest.fixture(scope="module")
def machine():
    return opteron_6128()


def plan(policy, cores, machine):
    return plan_colors(policy, cores, machine.mapping, machine.topology)


CORES_16 = list(range(16))
CORES_8_4N = [0, 1, 4, 5, 8, 9, 12, 13]
CORES_4_4N = [0, 4, 8, 12]


class TestBuddy:
    def test_no_colors(self, machine):
        for a in plan(Policy.BUDDY, CORES_16, machine):
            assert not a.colored


class TestMemColoring:
    def test_16_threads_8_private_local_banks(self, machine):
        assignments = plan(Policy.MEM, CORES_16, machine)
        mapping, topo = machine.mapping, machine.topology
        for i, a in enumerate(assignments):
            assert len(a.mem_colors) == 8
            node = topo.node_of_core(CORES_16[i])
            assert all(
                mapping.node_of_bank_color(c) == node for c in a.mem_colors
            )
            assert a.llc_colors == ()
        assert plan_is_disjoint(assignments)[0]

    def test_fewer_threads_get_more_colors(self, machine):
        assignments = plan(Policy.MEM, CORES_4_4N, machine)
        for a in assignments:
            assert len(a.mem_colors) == 32  # whole node to itself

    def test_mem_share_covers_all_bank_values(self, machine):
        """Each share spans all 8 banks of one channel/rank, so every LLC
        color stays compatible (see presets docstring)."""
        mapping = machine.mapping
        for a in plan(Policy.MEM, CORES_16, machine):
            banks = {mapping.split_bank_color(c)[3] for c in a.mem_colors}
            assert banks == set(range(8))


class TestLlcColoring:
    def test_paper_counts(self, machine):
        """Paper: 16 threads -> two private LLC colors each; 8 -> four."""
        for cores, expected in ((CORES_16, 2), (CORES_8_4N, 4)):
            assignments = plan(Policy.LLC, cores, machine)
            for a in assignments:
                assert len(a.llc_colors) == expected
                assert a.mem_colors == ()
            assert plan_is_disjoint(assignments)[1]

    def test_strided_shares_span_shared_bits(self, machine):
        """Strided LLC shares cover different values of the color bits
        shared with the bank field (keeps several banks usable)."""
        mapping = machine.mapping
        for a in plan(Policy.LLC, CORES_16, machine):
            b0b1 = {(c >> 3) & 0b11 for c in a.llc_colors}
            assert len(b0b1) == 2


class TestMemLlc:
    def test_both_private_disjoint(self, machine):
        assignments = plan(Policy.MEM_LLC, CORES_16, machine)
        mem_ok, llc_ok = plan_is_disjoint(assignments)
        assert mem_ok and llc_ok
        for a in assignments:
            assert a.mem_colors and a.llc_colors

    def test_every_thread_has_compatible_pair(self, machine):
        mapping = machine.mapping
        for a in plan(Policy.MEM_LLC, CORES_16, machine):
            assert any(
                mapping.colors_compatible(bc, lc)
                for bc in a.mem_colors
                for lc in a.llc_colors
            )


class TestPartVariants:
    def test_mem_llc_part_groups_share_llc(self, machine):
        """Paper: 16 threads -> 4 groups, each with 8 private LLC colors
        shared by the group's 4 threads."""
        assignments = plan(Policy.MEM_LLC_PART, CORES_16, machine)
        topo = machine.topology
        by_node = {}
        for i, a in enumerate(assignments):
            assert len(a.llc_colors) == 8
            node = topo.node_of_core(CORES_16[i])
            by_node.setdefault(node, set()).add(a.llc_colors)
        for node, shares in by_node.items():
            assert len(shares) == 1  # group members share one set
        all_colors = [set(s.pop()) for s in by_node.values()]
        for i in range(len(all_colors)):
            for j in range(i + 1, len(all_colors)):
                assert not all_colors[i] & all_colors[j]

    def test_llc_mem_part_shares_node_banks(self, machine):
        assignments = plan(Policy.LLC_MEM_PART, CORES_16, machine)
        mapping, topo = machine.mapping, machine.topology
        for i, a in enumerate(assignments):
            node = topo.node_of_core(CORES_16[i])
            assert set(a.mem_colors) == set(mapping.bank_colors_of_node(node))
            assert len(a.llc_colors) == 2
        # LLC private, MEM shared within node groups.
        mem_ok, llc_ok = plan_is_disjoint(assignments)
        assert llc_ok and not mem_ok


class TestBpm:
    def test_private_but_controller_oblivious(self, machine):
        assignments = bpm_assignments(CORES_16, machine.mapping)
        mem_ok, _ = plan_is_disjoint(assignments)
        assert mem_ok
        mapping, topo = machine.mapping, machine.topology
        # Most threads' banks are spread over several nodes (the flaw).
        for i, a in enumerate(assignments):
            nodes = {mapping.node_of_bank_color(c) for c in a.mem_colors}
            assert len(nodes) > 1

    def test_llc_colors_compatible(self, machine):
        mapping = machine.mapping
        for a in bpm_assignments(CORES_16, mapping):
            assert any(
                mapping.colors_compatible(bc, lc)
                for bc in a.mem_colors
                for lc in a.llc_colors
            )

    def test_deterministic(self, machine):
        a1 = bpm_assignments(CORES_16, machine.mapping)
        a2 = bpm_assignments(CORES_16, machine.mapping)
        assert a1 == a2

    def test_too_many_threads(self, machine):
        with pytest.raises(PlanError):
            bpm_assignments(list(range(129)), machine.mapping)


class TestValidation:
    def test_duplicate_cores_rejected(self, machine):
        with pytest.raises(ValueError):
            plan(Policy.MEM, [0, 0], machine)

    def test_empty_team_rejected(self, machine):
        with pytest.raises(ValueError):
            plan(Policy.MEM, [], machine)
