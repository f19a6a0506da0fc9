"""Hypothesis properties for the search genome and its operators.

The drivers rely on three contracts without ever re-checking them:
operators are *closed* (mutate/crossover output is always valid for the
preset), canonical serialization is *byte-stable* (same genome → same
bytes in any process, since cache keys derive from it), and equal
genomes produce equal JobSpec digests (the dedup/cache identity).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.alloc.policies import Policy
from repro.search.space import Genome, SearchSpace
from repro.service.jobs import JobSpec
from repro.util.rng import RngStream

CONFIG = "4_threads_4_nodes"
PROFILE = "mini"


@pytest.fixture(scope="module")
def space() -> SearchSpace:
    return SearchSpace(CONFIG, PROFILE)


@st.composite
def genomes(draw, space: SearchSpace):
    """A random valid genome, optionally pre-scrambled by mutations."""
    seed = draw(st.integers(0, 2**31 - 1))
    steps = draw(st.integers(0, 4))
    rng = RngStream(seed, "prop")
    genome = space.random_genome(rng.child("base"))
    for i in range(steps):
        genome = space.mutate(genome, rng.child("step", i))
    return genome


class TestOperatorClosure:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_random_and_mutate_always_valid(self, data):
        space = SearchSpace(CONFIG, PROFILE)
        genome = data.draw(genomes(space))
        space.validate(genome)
        mutated = space.mutate(
            genome, RngStream(data.draw(st.integers(0, 2**31 - 1)), "m")
        )
        space.validate(mutated)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_crossover_always_valid(self, data):
        space = SearchSpace(CONFIG, PROFILE)
        a = data.draw(genomes(space))
        b = data.draw(genomes(space))
        child = space.crossover(
            a, b, RngStream(data.draw(st.integers(0, 2**31 - 1)), "x")
        )
        space.validate(child)

    def test_paper_policies_encode_and_validate(self, space):
        for policy in Policy:
            space.validate(space.paper_genome(policy))

    def test_grid_recipes_all_validate(self, space):
        grid = space.grid()
        assert len(grid) >= 8
        digests = set()
        for _label, genome in grid:
            space.validate(genome)
            digests.add(genome.digest())
        assert len(digests) == len(grid), "grid must be digest-deduplicated"


class TestCanonicalSerialization:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_round_trip_is_identity(self, data):
        space = SearchSpace(CONFIG, PROFILE)
        genome = data.draw(genomes(space))
        back = Genome.from_json(genome.to_json())
        assert back == genome
        assert back.canonical() == genome.canonical()
        assert back.digest() == genome.digest()

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_gene_order_and_duplicates_do_not_matter(self, data):
        space = SearchSpace(CONFIG, PROFILE)
        genome = data.draw(genomes(space))
        scrambled = Genome(
            mem=tuple(tuple(reversed(g + g[:1])) for g in genome.mem),
            llc=tuple(tuple(reversed(g + g[:1])) for g in genome.llc),
            aged=genome.aged,
            hugepages=genome.hugepages,
        )
        assert scrambled.canonical() == genome.canonical()

    def test_canonical_is_byte_stable_across_processes(self, space):
        genome = space.mutate(
            space.paper_genome(Policy.MEM_LLC), RngStream(5, "t")
        )
        script = (
            "import sys, json\n"
            "from repro.search.space import Genome\n"
            "g = Genome.from_json(json.loads(sys.stdin.read()))\n"
            "sys.stdout.write(g.canonical())\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        out = subprocess.run(
            [sys.executable, "-c", script],
            input=genome.canonical(), capture_output=True, text=True,
            check=True, env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"},
        ).stdout
        assert out == genome.canonical()

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_equal_genomes_give_equal_jobspec_digests(self, data):
        space = SearchSpace(CONFIG, PROFILE)
        genome = data.draw(genomes(space))
        twin = Genome.from_json(json.loads(genome.canonical()))
        spec_a = JobSpec(bench="lbm", policy=genome.phenotype(),
                         config=CONFIG, profile=PROFILE)
        spec_b = JobSpec(bench="lbm", policy=twin.phenotype(),
                         config=CONFIG, profile=PROFILE)
        assert spec_a.digest() == spec_b.digest()

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_distinct_genomes_give_distinct_digests(self, data):
        space = SearchSpace(CONFIG, PROFILE)
        a = data.draw(genomes(space))
        b = data.draw(genomes(space))
        if a.canonical() == b.canonical():
            return
        assert a.digest() != b.digest()
        spec_a = JobSpec(bench="lbm", policy=a.phenotype(),
                         config=CONFIG, profile=PROFILE)
        spec_b = JobSpec(bench="lbm", policy=b.phenotype(),
                         config=CONFIG, profile=PROFILE)
        assert spec_a.digest() != spec_b.digest()


class TestSeedDeterminism:
    def test_same_seed_same_genome_sequence(self, space):
        def sequence(seed: int) -> list[str]:
            rng = RngStream(seed, "det")
            out = []
            g = space.random_genome(rng.child("g"))
            for i in range(10):
                g = space.mutate(g, rng.child("m", i))
                out.append(g.digest())
            return out

        assert sequence(123) == sequence(123)
        assert sequence(123) != sequence(124)

    def test_validate_rejects_wrong_thread_count(self, space):
        genome = space.paper_genome(Policy.MEM_LLC)
        wrong = Genome(mem=genome.mem[:-1], llc=genome.llc[:-1])
        with pytest.raises(ValueError, match="threads"):
            space.validate(wrong)

    def test_repair_fixes_incompatible_pairs(self, space):
        # Pick an (all-banks, one-llc) gene pair that is incompatible
        # for thread 0, then check mutate's repair restores validity.
        mapping = space.mapping
        llc = 0
        banks = [b for b in space.local_banks[0]
                 if not mapping.colors_compatible(b, llc)]
        if not banks:
            pytest.skip("preset has no incompatible pair to provoke")
        broken = Genome(
            mem=(tuple(banks[:2]),) + space.paper_genome(Policy.MEM_LLC).mem[1:],
            llc=((llc,),) + space.paper_genome(Policy.MEM_LLC).llc[1:],
        )
        repaired = space._repair(broken)
        space.validate(repaired)
