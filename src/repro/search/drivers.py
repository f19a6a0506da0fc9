"""Search drivers: budgeted grid and evolutionary tuning loops.

Both drivers speak to the simulator exclusively through an
:class:`Evaluator`, which turns genomes into content-addressed
:class:`~repro.service.JobSpec` batches and submits them through a
:class:`~repro.service.ServiceClient`.  That buys the search everything
the service plane already guarantees: result caching (repeat genomes,
and whole repeat *searches*, are free), in-flight dedup by digest,
crash retry, and either executor — serial inline or a process pool.
A baseline whose planned colors equal a genome's phenotype (the paper
policies are seeded as genomes) is the same simulation under another
label, and the scheduler serves it from the genome's stored record.

Early stopping is successive halving: every candidate is *screened* at
``screen_reps`` repetitions (cheap, noisy), only the top
``promote_fraction`` are *promoted* to ``full_reps`` (the number the
figures pipeline uses), and only full evaluations may join the Pareto
front.  Screens run rep ``0..screen_reps-1`` and fulls rep
``0..full_reps-1``, so a promotion's first reps are cache hits.

Budget accounting: one unit = one genome evaluation (a screen and a
full each count 1, regardless of rep count), so ``--budget N`` bounds
simulator work the way a user expects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.alloc.policies import Policy
from repro.obs.metrics import MetricsRegistry
from repro.search.pareto import FrontPoint, ParetoFront
from repro.search.space import Genome, SearchSpace
from repro.service.client import ServiceClient
from repro.service.jobs import JobSpec
from repro.util.rng import RngStream

#: The two paper policies every report compares against (Fig. 11's
#: uncolored baseline and its headline coloring).
BASELINE_POLICIES = (Policy.BUDDY, Policy.MEM_LLC)


@dataclass(frozen=True)
class SearchSettings:
    """Everything that identifies one search run (all digested into the
    log, so two runs with equal settings are byte-comparable)."""

    bench: str = "lbm"
    config: str = "16_threads_4_nodes"
    profile: str = "mini"
    seed: int = 0
    #: total genome evaluations (screens + fulls) the search may spend.
    budget: int = 48
    #: repetitions for a full (front-eligible) evaluation.
    full_reps: int = 3
    #: repetitions for a screening evaluation.
    screen_reps: int = 1
    #: share of screened candidates promoted to full evaluation.
    promote_fraction: float = 0.34
    #: evolutionary population per generation (ignored by the grid).
    population: int = 12
    sanitize: str = "off"

    def __post_init__(self) -> None:
        if self.budget < 1:
            raise ValueError("budget must be >= 1")
        if not 0 < self.promote_fraction <= 1:
            raise ValueError("promote_fraction must be in (0, 1]")
        if self.screen_reps < 1 or self.full_reps < self.screen_reps:
            raise ValueError("need 1 <= screen_reps <= full_reps")

    def to_json(self) -> dict:
        """Plain-dict form recorded in the search log."""
        return {
            "bench": self.bench,
            "config": self.config,
            "profile": self.profile,
            "seed": self.seed,
            "budget": self.budget,
            "full_reps": self.full_reps,
            "screen_reps": self.screen_reps,
            "promote_fraction": self.promote_fraction,
            "population": self.population,
            "sanitize": self.sanitize,
        }


@dataclass(frozen=True)
class EvalResult:
    """Aggregated outcome of evaluating one candidate at ``reps`` reps.

    ``outcome == "error"`` means every rep raised (e.g. a genome whose
    color set cannot hold the working set → ``OutOfColoredMemory``);
    such results carry infinite objectives and never reach the front,
    but the search itself keeps going.
    """

    digest: str
    label: str
    reps: int
    outcome: str  # "ok" | "error"
    runtime: float = math.inf
    divergence: float = math.inf
    max_slowdown: float = math.inf
    error: str | None = None

    @property
    def ok(self) -> bool:
        """Whether the evaluation produced usable objectives."""
        return self.outcome == "ok"

    @property
    def objectives(self) -> tuple[float, float]:
        """(runtime, divergence), both minimized."""
        return (self.runtime, self.divergence)

    def to_json(self) -> dict:
        """Deterministic plain-dict form (None replaces non-finite)."""

        def num(x: float) -> float | None:
            return x if math.isfinite(x) else None

        return {
            "digest": self.digest,
            "label": self.label,
            "reps": self.reps,
            "outcome": self.outcome,
            "runtime": num(self.runtime),
            "divergence": num(self.divergence),
            "max_slowdown": num(self.max_slowdown),
            "error": self.error,
        }


class Evaluator:
    """Interface the drivers require; see :class:`ServiceEvaluator`."""

    def evaluate_genome(self, genome: Genome, reps: int) -> EvalResult:
        """Evaluate a genome at ``reps`` repetitions."""
        raise NotImplementedError

    def evaluate_policy(self, policy: Policy, reps: int) -> EvalResult:
        """Evaluate one of the paper's named policies (baselines)."""
        raise NotImplementedError


class ServiceEvaluator(Evaluator):
    """Evaluator backed by a :class:`~repro.service.ServiceClient`.

    Genomes ride as structured-policy JobSpecs (their phenotype dict);
    baselines ride as the same named-policy strings the figures
    pipeline submits, so both share cache lines with prior work.  A
    baseline and its paper-genome twin differ only in label, so they
    share an evaluation digest: with a store attached, whichever runs
    second is a cache hit.  Results are memoized per (digest, reps) —
    drivers may re-request a candidate freely.
    """

    def __init__(self, client: ServiceClient, settings: SearchSettings,
                 metrics: MetricsRegistry | None = None) -> None:
        self.client = client
        self.settings = settings
        self.metrics = metrics
        self._memo: dict[tuple[str, int], EvalResult] = {}
        #: non-deterministic run accounting (kept out of the search log).
        self.jobs_executed = 0
        self.jobs_cached = 0

    # ------------------------------------------------------------- internals
    def _spec(self, policy, rep: int) -> JobSpec:
        s = self.settings
        return JobSpec(
            kind="bench", bench=s.bench, policy=policy, config=s.config,
            rep=rep, profile=s.profile, seed=s.seed, sanitize=s.sanitize,
        )

    def _evaluate(self, key: str, label: str, policy, reps: int) -> EvalResult:
        memo_key = (key, reps)
        if memo_key in self._memo:
            return self._memo[memo_key]
        handles = [
            self.client.submit(self._spec(policy, rep)) for rep in range(reps)
        ]
        runtimes: list[float] = []
        spreads: list[float] = []
        slowdowns: list[float] = []
        error: str | None = None
        for handle in handles:
            try:
                from repro.experiments.runner import RunRecord

                record = RunRecord.from_json(handle.result())
            except Exception as exc:  # noqa: BLE001 - any rep failure -> error outcome
                error = error or f"{type(exc).__name__}: {exc}"
                continue
            if handle.from_cache:
                self.jobs_cached += 1
            else:
                self.jobs_executed += 1
            self._count_job("cache_hit" if handle.from_cache else "executed")
            runtimes.append(record.runtime)
            spreads.append(record.runtime_spread)
            fastest = min(record.thread_runtimes, default=0.0)
            slowest = max(record.thread_runtimes, default=0.0)
            slowdowns.append(slowest / fastest if fastest > 0 else math.inf)
        if runtimes and error is None:
            result = EvalResult(
                digest=key, label=label, reps=reps, outcome="ok",
                runtime=sum(runtimes) / len(runtimes),
                divergence=sum(spreads) / len(spreads),
                max_slowdown=max(slowdowns),
            )
        else:
            result = EvalResult(
                digest=key, label=label, reps=reps, outcome="error",
                error=error or "no successful repetitions",
            )
        self._count_eval(result.outcome)
        self._memo[memo_key] = result
        return result

    def _count_job(self, result: str) -> None:
        if self.metrics is not None:
            self.metrics.counter("search.jobs", result=result).inc()

    def _count_eval(self, outcome: str) -> None:
        if self.metrics is not None:
            self.metrics.counter("search.evaluations", outcome=outcome).inc()

    # -------------------------------------------------------------- interface
    def evaluate_genome(self, genome: Genome, reps: int) -> EvalResult:
        """Submit the genome's phenotype for reps ``0..reps-1``; aggregate."""
        return self._evaluate(
            genome.digest(), genome.name, genome.phenotype(), reps
        )

    def evaluate_policy(self, policy: Policy, reps: int) -> EvalResult:
        """Evaluate a named paper policy through the same pipeline."""
        return self._evaluate(
            f"policy:{policy.value}", policy.value, policy.value, reps
        )


@dataclass
class SearchOutcome:
    """What a driver run produced.

    ``log`` and ``front`` contain only deterministic fields — a
    same-seed rerun (even one served entirely from cache) reproduces
    them byte-for-byte.  ``stats`` holds the run-dependent counters
    (cache hits, executed jobs) and is reported separately.
    """

    settings: SearchSettings
    driver: str
    log: list[dict] = field(default_factory=list)
    front: ParetoFront = field(default_factory=ParetoFront)
    baselines: dict[str, EvalResult] = field(default_factory=dict)
    evaluations: int = 0
    genomes: dict[str, dict] = field(default_factory=dict)
    stats: dict = field(default_factory=dict)

    @property
    def best(self) -> FrontPoint | None:
        """Fastest front point (None if nothing survived evaluation)."""
        return self.front.best_runtime()


class _DriverBase:
    """Shared budget accounting + screen/promote machinery."""

    name = "base"

    def __init__(self, space: SearchSpace, evaluator: Evaluator,
                 settings: SearchSettings,
                 metrics: MetricsRegistry | None = None) -> None:
        self.space = space
        self.evaluator = evaluator
        self.settings = settings
        self.metrics = metrics
        self.outcome = SearchOutcome(settings=settings, driver=self.name)
        self._screened: dict[str, EvalResult] = {}
        self._fulled: set[str] = set()

    # ------------------------------------------------------------ accounting
    @property
    def budget_left(self) -> int:
        return self.settings.budget - self.outcome.evaluations

    def _gauge(self, gauge_name: str, value: float) -> None:
        if self.metrics is not None:
            self.metrics.gauge(f"search.{gauge_name}").set(value)

    def _log_eval(self, gen: int, phase: str, genome: Genome,
                  result: EvalResult) -> None:
        digest = genome.digest()
        self.outcome.genomes.setdefault(digest, genome.to_json())
        self.outcome.log.append({
            "event": "eval",
            "gen": gen,
            "phase": phase,
            "digest": digest,
            "label": result.label,
            **{k: v for k, v in result.to_json().items()
               if k not in ("digest", "label")},
        })

    def _screen(self, gen: int, genome: Genome) -> EvalResult | None:
        """Screening evaluation; returns None once the budget is spent."""
        digest = genome.digest()
        if digest in self._screened:
            return self._screened[digest]
        if self.budget_left <= 0:
            return None
        result = self.evaluator.evaluate_genome(
            genome, self.settings.screen_reps
        )
        self.outcome.evaluations += 1
        self._screened[digest] = result
        self._log_eval(gen, "screen", genome, result)
        return result

    def _promote(self, gen: int, genome: Genome) -> EvalResult | None:
        """Full evaluation; winners join the Pareto front."""
        digest = genome.digest()
        if digest in self._fulled:
            return None
        if self.budget_left <= 0:
            return None
        result = self.evaluator.evaluate_genome(genome, self.settings.full_reps)
        self.outcome.evaluations += 1
        self._fulled.add(digest)
        self._log_eval(gen, "full", genome, result)
        if result.ok:
            self.outcome.front.offer(FrontPoint(
                runtime=result.runtime, divergence=result.divergence,
                digest=digest, label=result.label,
            ))
        self._update_gauges(gen)
        return result

    def _update_gauges(self, gen: int) -> None:
        self._gauge("generation", gen)
        self._gauge("front_size", len(self.outcome.front))
        best = self.outcome.front.best_runtime()
        if best is not None:
            self._gauge("best_runtime", best.runtime)

    def _halve(self, gen: int, candidates: list[Genome]) -> None:
        """One successive-halving round: screen all, promote the top slice.

        The promotion rank is (runtime, divergence, digest) over
        successful screens — total and deterministic.  Errored screens
        are never promoted.  Screens are capped so the remaining budget
        can still afford the promotions they earn — otherwise a small
        ``--budget`` drains entirely on screening and the front stays
        empty.
        """
        frac = self.settings.promote_fraction
        allowed = max(1, math.floor(self.budget_left / (1 + frac)))
        screened: list[tuple[EvalResult, Genome]] = []
        seen: set[str] = set()
        for genome in candidates:
            digest = genome.digest()
            if digest in seen:
                continue
            seen.add(digest)
            if allowed <= 0:
                break
            already = genome.digest() in self._screened
            result = self._screen(gen, genome)
            if result is None:
                break
            if not already:
                allowed -= 1
            if result.ok:
                screened.append((result, genome))
        screened.sort(key=lambda rg: (rg[0].runtime, rg[0].divergence,
                                      rg[0].digest))
        keep = max(1, math.ceil(len(screened) * self.settings.promote_fraction))
        for result, genome in screened[:keep]:
            if self._promote(gen, genome) is None and self.budget_left <= 0:
                break

    def _finish(self) -> SearchOutcome:
        """Record baselines + run stats and return the outcome."""
        for policy in BASELINE_POLICIES:
            result = self.evaluator.evaluate_policy(
                policy, self.settings.full_reps
            )
            self.outcome.baselines[policy.value] = result
            self.outcome.log.append({
                "event": "baseline",
                "policy": policy.value,
                **{k: v for k, v in result.to_json().items()
                   if k not in ("digest", "label")},
            })
        ev = self.evaluator
        if isinstance(ev, ServiceEvaluator):
            self.outcome.stats = {
                "jobs_executed": ev.jobs_executed,
                "jobs_cached": ev.jobs_cached,
            }
        self._update_gauges(self.outcome.log[-1].get("gen", 0)
                            if self.outcome.log else 0)
        return self.outcome


class GridDriver(_DriverBase):
    """Exhaustive sweep of the recipe grid, with successive halving.

    Candidates are the paper's seven named policies (as genomes) plus
    the :meth:`~repro.search.space.SearchSpace.grid` recipes, screened
    in a deterministic order and halved once into full evaluations.
    """

    name = "grid"

    def run(self) -> SearchOutcome:
        """Execute the sweep; returns the populated outcome."""
        candidates = [self.space.paper_genome(p) for p in Policy]
        candidates.extend(g for _label, g in self.space.grid())
        self._halve(0, candidates)
        return self._finish()


class EvolutionDriver(_DriverBase):
    """Seeded evolutionary loop over the genome space.

    Generation 0 is the paper's policies plus random genomes (the seed
    population).  Each generation is one successive-halving round;
    parents for the next generation are the current Pareto front plus
    the generation's best screens, recombined by per-thread crossover
    and mutated.  Everything is driven by one
    :class:`~repro.util.rng.RngStream`, so a seed fully determines the
    candidate sequence.
    """

    name = "evolution"

    def run(self) -> SearchOutcome:
        """Execute the loop until the budget is exhausted."""
        s = self.settings
        rng = RngStream(s.seed, "search", s.bench, s.config)
        population = [self.space.paper_genome(p) for p in Policy]
        fill = rng.child("seed-pop")
        i = 0
        while len(population) < s.population:
            population.append(self.space.random_genome(fill.child(i)))
            i += 1
        gen = 0
        while self.budget_left > 0:
            self._halve(gen, population)
            if self.budget_left <= 0:
                break
            population = self._next_generation(gen, rng.child("gen", gen))
            if not population:
                break
            gen += 1
        return self._finish()

    def _next_generation(self, gen: int, rng: RngStream) -> list[Genome]:
        """Breed the next population from front members + best screens."""
        by_digest = {d: Genome.from_json(g)
                     for d, g in self.outcome.genomes.items()}
        parents = [by_digest[p.digest] for p in self.outcome.front.points()
                   if p.digest in by_digest]
        ranked = sorted(
            (r for r in self._screened.values() if r.ok),
            key=lambda r: (r.runtime, r.divergence, r.digest),
        )
        for result in ranked:
            if len(parents) >= max(4, self.settings.population // 2):
                break
            genome = by_digest.get(result.digest)
            if genome is not None and genome not in parents:
                parents.append(genome)
        if not parents:
            return [self.space.random_genome(rng.child("restart", i))
                    for i in range(self.settings.population)]
        children: list[Genome] = []
        seen = set(self._screened)
        attempt = 0
        while (len(children) < self.settings.population
               and attempt < self.settings.population * 10):
            r = rng.child("child", attempt)
            attempt += 1
            if len(parents) >= 2 and r.child("xover?").random() < 0.6:
                pick = r.child("parents").permutation(len(parents))[:2]
                child = self.space.crossover(
                    parents[int(pick[0])], parents[int(pick[1])], r.child("x")
                )
            else:
                base = parents[int(r.child("parent").integers(0, len(parents)))]
                child = base
            child = self.space.mutate(child, r.child("m"))
            if r.child("m2?").random() < 0.3:
                child = self.space.mutate(child, r.child("m2"))
            if child.digest() not in seen:
                seen.add(child.digest())
                children.append(child)
        return children


DRIVERS = {
    GridDriver.name: GridDriver,
    EvolutionDriver.name: EvolutionDriver,
}
