"""Unit tests for the color planners (paper §V-B partitioning rules)."""

import hashlib
import json

import pytest

from repro.alloc.bpm import PlanError, bpm_assignments
from repro.alloc.planner import (
    ALL_RECIPES,
    RECIPES,
    _split_evenly,
    _split_strided,
    plan_colors,
    plan_is_disjoint,
)
from repro.alloc.policies import Policy
from repro.experiments.configs import CONFIGS
from repro.experiments.runner import PROFILES
from repro.machine.presets import opteron_6128
from repro.search.space import SearchSpace


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
        # Banks private, LLC shared within node groups.
        assert plan_is_disjoint(assignments) == (True, False)

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

    def test_shares_llc_colors_once_compatible_ones_run_out(self, machine):
        """13 threads exhaust some bank shares' compatible LLC colors:
        those threads share colors (BPM is best-effort), still compatible."""
        assignments = bpm_assignments(list(range(13)), machine.mapping)
        assert plan_is_disjoint(assignments) == (True, False)
        mapping = machine.mapping
        for a in assignments:
            assert any(
                mapping.colors_compatible(bc, lc)
                for bc in a.mem_colors for lc in a.llc_colors
            )

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


class TestRecipes:
    def test_every_policy_but_bpm_is_a_recipe(self):
        assert set(RECIPES) == set(Policy) - {Policy.BPM}
        assert len(set(RECIPES.values())) == len(RECIPES)
        assert set(RECIPES.values()) < set(ALL_RECIPES)
        assert len(ALL_RECIPES) == 9


@pytest.mark.parametrize("split", [_split_evenly, _split_strided])
def test_more_shares_than_colors_wrap_around(split):
    """Each of 5 threads still owns one of 3 colors; threads share."""
    assert [split(range(3), 5, i) for i in range(5)] == [
        (0,), (1,), (2,), (0,), (1,)
    ]


def _sha256(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


#: sha256 of each config's search grid (labels and genome digests, in
#: grid order) and of its plan_colors output for every Policy, the same
#: under every profile (they share the Opteron's color geometry).  Every
#: run's colors come from one of these, so a refactor of the planner or
#: the grid must leave the table as it is.
PLAN_PIN = {
    "16_threads_4_nodes": (
        "0fc38aa402711731345f09c18f6069810aff701f0f45ca21ee3390bb31f9513b",
        "da111ec26429f774a42c4bb3a5bb9928c746c1b4eef1cf3b18b42df49ea06a42"),
    "8_threads_4_nodes": (
        "35dcd27efd58301c16892da566e5bc550393ca00f910aba4b07a89d6b9d0ce71",
        "99b901ca1a733c937af75d8366f2c5acbff184dbf85c26cda03abfdf16130992"),
    "8_threads_2_nodes": (
        "cc7688749ae1a62e18e52d67e520e428ce0687bb142acca2683e2178ed2c67ba",
        "ea4825ed3c0c25435b73186da9162e9c07c5b73c4962e6c60c6e3d0df4579e99"),
    "4_threads_4_nodes": (
        "dda179c7b723becc4fff41d2b127929d002615c4fe470734012e85d6832a650f",
        "3068e7e7698d4797fbd055c235d71b01d503e01b41df9647d0f7f841302a7952"),
    "4_threads_1_nodes": (
        "5842fe67d4287379b30056ad7ff358429ed45837c2ce58e7be105b6ce7fbfc15",
        "92b1c189c45f1d4c9ce2e1dcec1e47b9a71ee512e57c34d7c8dee426069033f0"),
}


def test_plan_pin_covers_every_config():
    assert set(PLAN_PIN) == set(CONFIGS)


@pytest.mark.parametrize("profile", sorted(PROFILES))
@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_grid_and_plans_match_the_pin(profile, config):
    space = SearchSpace(config, profile)
    grid = [[label, genome.digest()] for label, genome in space.grid()]
    plans = {
        policy.value: [
            [list(a.mem_colors), list(a.llc_colors)]
            for a in plan_colors(policy, space.cores, space.mapping,
                                 space.topology)
        ]
        for policy in Policy
    }
    assert (_sha256(grid), _sha256(plans)) == PLAN_PIN[config]
