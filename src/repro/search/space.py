"""Policy-space encoding: the coloring genome and its operators.

A :class:`Genome` is a complete, serializable point in the coloring
configuration space for one (config, machine) pair: per-thread bank and
LLC color sets plus two allocator-state flags (``aged`` free lists,
``hugepages``).  The paper's seven named policies are specific genomes
(:meth:`SearchSpace.paper_genome`), so every search starts from — and
can never do worse than — the published configurations.

Design rules, all load-bearing for the search drivers:

* **Canonical serialization.**  Color sets are stored sorted and
  deduplicated; :meth:`Genome.canonical` is byte-stable across
  processes, so equal genomes produce equal phenotype dicts and
  therefore equal :class:`~repro.service.JobSpec` digests — repeated
  evaluations hit the content-addressed result cache instead of
  re-simulating.
* **Closed operators.**  :meth:`SearchSpace.mutate` and
  :meth:`SearchSpace.crossover` always return genomes that pass
  :meth:`SearchSpace.validate` for the preset: colors stay in range and
  every thread coloring both axes keeps at least one *compatible*
  (bank, LLC) pair (the Opteron's overlapping color bits make the
  combo matrix sparse; an incompatible pair has zero physical frames).
* **Seed determinism.**  All randomness flows through the caller's
  :class:`~repro.util.rng.RngStream`, so the same seed reproduces the
  same genome sequence in any process or worker.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace

from repro.alloc.custom import CustomPolicy
from repro.alloc.planner import ALL_RECIPES, ColorAssignment, Recipe, plan_colors
from repro.alloc.policies import Policy
from repro.experiments.configs import CONFIGS
from repro.experiments.runner import profile_machine
from repro.util.rng import RngStream

#: Version tag carried in serialized genomes (independent of the
#: service record schema; bump on encoding changes).
GENOME_SCHEMA = 1

#: Per-thread color-set size cap: large sets converge on "uncolored"
#: behaviour while bloating the search space, so the operators stay
#: below this many colors per axis per thread.
MAX_COLORS_PER_AXIS = 8


@dataclass(frozen=True)
class Genome:
    """One point in the coloring policy space.

    Attributes:
        mem: per-thread bank color sets (sorted tuples; empty =
            uncolored on the bank axis).
        llc: per-thread LLC color sets (same convention).
        aged: boot the kernel with fragmented, shuffled free lists.
        hugepages: back the workload heap with 2 MiB pages.
    """

    mem: tuple[tuple[int, ...], ...]
    llc: tuple[tuple[int, ...], ...]
    aged: bool = False
    hugepages: bool = False

    def __post_init__(self) -> None:
        if len(self.mem) != len(self.llc):
            raise ValueError(
                f"mem genes for {len(self.mem)} threads, llc for {len(self.llc)}"
            )
        object.__setattr__(
            self, "mem", tuple(tuple(sorted(set(g))) for g in self.mem)
        )
        object.__setattr__(
            self, "llc", tuple(tuple(sorted(set(g))) for g in self.llc)
        )

    @property
    def nthreads(self) -> int:
        """Number of threads the genome colors."""
        return len(self.mem)

    # ------------------------------------------------------------ conversion
    def to_json(self) -> dict:
        """Canonical plain-dict form (inverse of :meth:`from_json`)."""
        return {
            "schema": GENOME_SCHEMA,
            "mem": [list(g) for g in self.mem],
            "llc": [list(g) for g in self.llc],
            "aged": self.aged,
            "hugepages": self.hugepages,
        }

    @classmethod
    def from_json(cls, data: dict) -> "Genome":
        """Rebuild a genome from its :meth:`to_json` form."""
        if data.get("schema") != GENOME_SCHEMA:
            raise ValueError(
                f"genome schema {data.get('schema')!r} != {GENOME_SCHEMA}"
            )
        return cls(
            mem=tuple(tuple(int(c) for c in g) for g in data["mem"]),
            llc=tuple(tuple(int(c) for c in g) for g in data["llc"]),
            aged=bool(data.get("aged", False)),
            hugepages=bool(data.get("hugepages", False)),
        )

    def canonical(self) -> str:
        """Byte-stable canonical JSON (sorted keys, no whitespace)."""
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))

    def digest(self) -> str:
        """sha256 of :meth:`canonical` — the genome's identity."""
        return hashlib.sha256(self.canonical().encode()).hexdigest()

    @property
    def name(self) -> str:
        """Short display name derived from the digest."""
        return f"tuned:{self.digest()[:8]}"

    def phenotype(self) -> dict:
        """The structured-policy payload a :class:`JobSpec` carries.

        Equal genomes produce byte-identical phenotype dicts, so their
        JobSpec digests coincide and the result cache dedups them.
        """
        return CustomPolicy(
            name=self.name,
            assignments=tuple(
                ColorAssignment(mem_colors=m, llc_colors=lc)
                for m, lc in zip(self.mem, self.llc)
            ),
            aged=self.aged,
            hugepages=self.hugepages,
        ).to_json()


class SearchSpace:
    """The genome space for one (config, profile) pair, with operators.

    Args:
        config: experiment configuration name (thread pinning).
        profile: run profile ("mini"/"scaled"/"full") — fixes the
            machine preset the genomes are validated against.
        machine: explicit preset overriding the profile's machine, so
            the genome space closes over any platform preset.
        cores: explicit thread pinning overriding the named config —
            required when ``machine``'s topology does not carry the
            paper's core numbering.
    """

    def __init__(self, config: str = "16_threads_4_nodes",
                 profile: str = "scaled",
                 machine=None, cores: list[int] | None = None) -> None:
        self.config = config
        self.profile = profile
        self.machine = machine if machine is not None else profile_machine(profile)
        self.mapping = self.machine.mapping
        self.topology = self.machine.topology
        self.cores = list(cores) if cores is not None else list(CONFIGS[config].cores)
        self.nthreads = len(self.cores)
        #: each thread's local node's bank colors.
        self.local_banks = [
            tuple(self.mapping.bank_colors_of_node(self.topology.node_of_core(c)))
            for c in self.cores
        ]
        self.all_llc = tuple(range(self.mapping.num_llc_colors))
        self.all_banks = tuple(range(self.mapping.num_bank_colors))

    # ------------------------------------------------------------ validation
    def validate(self, genome: Genome) -> None:
        """Raise ValueError unless ``genome`` is runnable on this preset."""
        if genome.nthreads != self.nthreads:
            raise ValueError(
                f"genome colors {genome.nthreads} threads, "
                f"config {self.config} has {self.nthreads}"
            )
        CustomPolicy.from_json(genome.phenotype()).validate(
            self.mapping, self.topology, nthreads=self.nthreads
        )

    # ----------------------------------------------------------- seed points
    def paper_genome(self, policy: Policy | Recipe) -> Genome:
        """Encode a named policy, or a planner recipe, as a genome."""
        assignments = plan_colors(
            policy, self.cores, self.mapping, self.topology
        )
        return Genome(
            mem=tuple(a.mem_colors for a in assignments),
            llc=tuple(a.llc_colors for a in assignments),
        )

    def grid(self) -> list[tuple[str, Genome]]:
        """The exhaustive small grid: the planner's recipes x flags.

        Every :data:`~repro.alloc.planner.ALL_RECIPES` entry (bank mode
        uncolored / private / node-shared crossed with LLC mode
        uncolored / private / node-group), planned by
        :func:`~repro.alloc.planner.plan_colors` and crossed with the
        ``aged`` and ``hugepages`` flags: 36 genomes, deduplicated by
        digest (labels keep the first recipe that produced a genome).
        """
        out: list[tuple[str, Genome]] = []
        seen: set[str] = set()
        for recipe in ALL_RECIPES:
            base = self.paper_genome(recipe)
            for aged in (False, True):
                for huge in (False, True):
                    genome = replace(base, aged=aged, hugepages=huge)
                    digest = genome.digest()
                    if digest in seen:
                        continue
                    seen.add(digest)
                    label = (f"{recipe.label}{'/aged' if aged else ''}"
                             f"{'/huge' if huge else ''}")
                    out.append((label, genome))
        return out

    # ------------------------------------------------------------- operators
    def random_genome(self, rng: RngStream) -> Genome:
        """A random valid genome (biased toward node-local bank colors)."""
        mem = []
        llc = []
        for i in range(self.nthreads):
            mem.append(self._random_mem_gene(rng.child("mem", i), i))
            llc.append(self._random_llc_gene(rng.child("llc", i), i))
        genome = Genome(
            mem=tuple(mem),
            llc=tuple(llc),
            aged=bool(rng.child("aged").random() < 0.15),
            hugepages=bool(rng.child("huge").random() < 0.15),
        )
        return self._repair(genome)

    def mutate(self, genome: Genome, rng: RngStream) -> Genome:
        """One mutation step; the result is always valid for the preset."""
        mem = [list(g) for g in genome.mem]
        llc = [list(g) for g in genome.llc]
        aged, huge = genome.aged, genome.hugepages
        op = int(rng.child("op").integers(0, 8))
        i = int(rng.child("thread").integers(0, self.nthreads))
        r = rng.child("draw")
        if op == 0:  # resample thread i's bank gene
            mem[i] = list(self._random_mem_gene(r, i))
        elif op == 1:  # resample thread i's LLC gene
            llc[i] = list(self._random_llc_gene(r, i))
        elif op == 2:  # add one bank color (local-biased)
            pool = (self.local_banks[i] if r.random() < 0.75
                    else self.all_banks)
            candidates = [c for c in pool if c not in mem[i]]
            if candidates and len(mem[i]) < MAX_COLORS_PER_AXIS:
                mem[i].append(candidates[int(r.integers(0, len(candidates)))])
        elif op == 3:  # drop one bank color
            if mem[i]:
                mem[i].pop(int(r.integers(0, len(mem[i]))))
        elif op == 4:  # add one LLC color
            candidates = [c for c in self.all_llc if c not in llc[i]]
            if candidates and len(llc[i]) < MAX_COLORS_PER_AXIS:
                llc[i].append(candidates[int(r.integers(0, len(candidates)))])
        elif op == 5:  # drop one LLC color
            if llc[i]:
                llc[i].pop(int(r.integers(0, len(llc[i]))))
        elif op == 6:  # toggle aged
            aged = not aged
        else:  # toggle hugepages
            huge = not huge
        return self._repair(Genome(
            mem=tuple(tuple(g) for g in mem),
            llc=tuple(tuple(g) for g in llc),
            aged=aged,
            hugepages=huge,
        ))

    def crossover(self, a: Genome, b: Genome, rng: RngStream) -> Genome:
        """Uniform per-thread crossover; flags drawn per parent.

        Per-thread genes travel as (mem, llc) pairs, so a child thread
        inherits a *jointly valid* pair from one parent and the result
        needs no repair beyond the standard pass.
        """
        mem = []
        llc = []
        for i in range(self.nthreads):
            src = a if rng.child("pick", i).random() < 0.5 else b
            mem.append(src.mem[i])
            llc.append(src.llc[i])
        return self._repair(Genome(
            mem=tuple(mem),
            llc=tuple(llc),
            aged=(a if rng.child("aged").random() < 0.5 else b).aged,
            hugepages=(a if rng.child("huge").random() < 0.5 else b).hugepages,
        ))

    # -------------------------------------------------------------- internals
    def _random_mem_gene(self, rng: RngStream, i: int) -> tuple[int, ...]:
        mode = rng.child("mode").random()
        if mode < 0.15:
            return ()
        pool = (self.local_banks[i] if mode < 0.90 else self.all_banks)
        k = int(rng.child("k").integers(1, min(MAX_COLORS_PER_AXIS,
                                               len(pool)) + 1))
        picks = rng.child("pick").permutation(len(pool))[:k]
        return tuple(int(pool[p]) for p in picks)

    def _random_llc_gene(self, rng: RngStream, i: int) -> tuple[int, ...]:
        mode = rng.child("mode").random()
        if mode < 0.25:
            return ()
        k = int(rng.child("k").integers(1, min(MAX_COLORS_PER_AXIS,
                                               len(self.all_llc)) + 1))
        picks = rng.child("pick").permutation(len(self.all_llc))[:k]
        return tuple(int(self.all_llc[p]) for p in picks)

    def _repair(self, genome: Genome) -> Genome:
        """Restore per-thread (bank, LLC) compatibility; deterministic.

        If a thread colors both axes but owns no compatible pair, the
        smallest local bank color compatible with its LLC set is added
        (every node's banks cover all shared-bit values, so one always
        exists); as a belt-and-braces fallback the bank gene is cleared.
        """
        mem = list(genome.mem)
        changed = False
        for i in range(self.nthreads):
            if not mem[i] or not genome.llc[i]:
                continue
            if any(
                self.mapping.colors_compatible(bc, lc)
                for bc in mem[i]
                for lc in genome.llc[i]
            ):
                continue
            fix = next(
                (bc for bc in sorted(self.local_banks[i])
                 if any(self.mapping.colors_compatible(bc, lc)
                        for lc in genome.llc[i])),
                None,
            )
            mem[i] = tuple(sorted(mem[i] + (fix,))) if fix is not None else ()
            changed = True
        if not changed:
            return genome
        return Genome(
            mem=tuple(mem), llc=genome.llc,
            aged=genome.aged, hugepages=genome.hugepages,
        )
