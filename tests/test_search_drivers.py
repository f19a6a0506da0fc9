"""Search driver contracts: determinism, caching, fault survival.

The headline property (the issue's acceptance bar): a same-seed,
same-budget rerun of a search produces a byte-identical log document
and Pareto front, and — against the store the first run populated —
serves (almost) everything from cache.  Plus: the front always contains
a policy that dominates or matches the paper's ``mem+llc`` baseline,
because the seed population embeds the paper's policies and the
structured-policy encoding is bit-identical to the named one.
"""

from __future__ import annotations

import json

import pytest

from repro.faultline import FaultPlan, FaultRule, armed
from repro.search.drivers import (
    EvolutionDriver,
    GridDriver,
    SearchSettings,
    ServiceEvaluator,
)
from repro.search.pareto import FrontPoint, ParetoFront, dominates
from repro.search.report import (
    render_report,
    replay_front,
    search_log_json,
    verdict_vs_baseline,
)
from repro.search.space import SearchSpace
from repro.search.tune import run_search as tune_run_search
from repro.service.client import ServiceClient

SETTINGS = SearchSettings(
    bench="lbm", config="4_threads_4_nodes", profile="mini",
    seed=11, budget=10, full_reps=2, screen_reps=1, population=6,
)


@pytest.fixture(scope="module")
def space() -> SearchSpace:
    return SearchSpace(SETTINGS.config, SETTINGS.profile)


def run_search(driver_cls, store, settings=SETTINGS, space_=None,
               executor="inline"):
    shards = 1 if executor == "inline" else 2
    with ServiceClient(store=store, executor=executor,
                       shards=shards) as client:
        evaluator = ServiceEvaluator(client, settings)
        outcome = driver_cls(
            space_ or SearchSpace(settings.config, settings.profile),
            evaluator, settings,
        ).run()
    return outcome, evaluator


class TestParetoFront:
    def test_dominates_is_strict_somewhere(self):
        assert dominates((1.0, 2.0), (2.0, 2.0))
        assert dominates((1.0, 1.0), (2.0, 2.0))
        assert not dominates((1.0, 2.0), (1.0, 2.0))  # equal: no
        assert not dominates((1.0, 3.0), (2.0, 2.0))  # trade-off: no

    def test_offer_evicts_dominated_and_keeps_ties(self):
        front = ParetoFront()
        a = FrontPoint(10.0, 5.0, "a", "a")
        b = FrontPoint(8.0, 6.0, "b", "b")  # trade-off with a
        c = FrontPoint(7.0, 4.0, "c", "c")  # dominates both
        tie = FrontPoint(7.0, 4.0, "d", "d")  # equal to c: kept
        assert front.offer(a) and front.offer(b)
        assert front.offer(c)
        assert [p.digest for p in front.points()] == ["c"]
        assert front.offer(tie)
        assert len(front) == 2
        assert not front.offer(FrontPoint(9.0, 9.0, "e", "e"))
        assert "e" not in front

    def test_reoffer_is_idempotent(self):
        front = ParetoFront()
        p = FrontPoint(1.0, 1.0, "p", "p")
        assert front.offer(p) and front.offer(p)
        assert len(front) == 1


class TestSearchDeterminismAndCaching:
    @pytest.mark.parametrize("executor", ["inline", "process"])
    def test_same_seed_rerun_is_identical_and_cache_served(
        self, tmp_path, executor
    ):
        """The cold run uses ``executor``, the warm rerun runs inline:
        the log must not depend on which executor simulated it."""
        store = str(tmp_path / "search.sqlite")
        out1, ev1 = run_search(EvolutionDriver, store, executor=executor)
        doc1 = search_log_json(out1)
        assert ev1.jobs_executed > 0  # cold cache actually simulated

        out2, ev2 = run_search(EvolutionDriver, store)
        doc2 = search_log_json(out2)
        assert json.dumps(doc1, sort_keys=True) == json.dumps(
            doc2, sort_keys=True
        )
        assert out1.front.to_json() == out2.front.to_json()
        total = ev2.jobs_executed + ev2.jobs_cached
        assert total > 0
        assert ev2.jobs_cached / total >= 0.95, (
            f"rerun executed {ev2.jobs_executed} of {total} jobs"
        )

    def test_storeless_search_simulates_each_evaluation_once(self, tmp_path):
        """Without a store the search still caches for its own lifetime:
        promotions reuse their screens' reps and the baselines reuse
        their paper-genome twins, as with a SQLite store, and the log
        does not depend on which store served it."""
        settings = SearchSettings(
            bench="lbm", config="16_threads_4_nodes", profile="mini",
            seed=0, budget=24, full_reps=2, population=8,
        )
        bare = tune_run_search(settings)
        stored = tune_run_search(settings, store=str(tmp_path / "s.sqlite"))
        assert bare.stats["jobs_executed"] == 25
        assert stored.stats["jobs_executed"] == 25

        def log_text(outcome) -> str:
            return json.dumps(search_log_json(outcome), indent=1,
                              sort_keys=True)

        assert log_text(bare) == log_text(stored)

    def test_log_is_json_native_and_free_of_wall_clock(self, tmp_path):
        out, _ = run_search(GridDriver, str(tmp_path / "g.sqlite"))
        doc = search_log_json(out)
        text = json.dumps(doc)  # must not raise (no inf/nan/objects)
        for banned in ("time", "date", "cache_hits", "wall"):
            for entry in doc["log"]:
                assert banned not in entry
        assert "Infinity" not in text

    def test_replay_front_from_cache_alone(self, tmp_path):
        store = str(tmp_path / "replay.sqlite")
        out, _ = run_search(EvolutionDriver, store)
        doc = json.loads(json.dumps(search_log_json(out)))
        with ServiceClient(store=store, executor="inline") as client:
            evaluator = ServiceEvaluator(client, SETTINGS)
            front = replay_front(doc, evaluator)
            assert evaluator.jobs_executed == 0
        assert front.to_json() == out.front.to_json()


class TestAcceptanceFloor:
    def test_front_matches_or_dominates_paper_mem_llc(self, tmp_path):
        out, _ = run_search(GridDriver, str(tmp_path / "a.sqlite"))
        assert len(out.front) >= 1
        verdict, witness = verdict_vs_baseline(
            out, out.baselines["mem+llc"]
        )
        assert verdict in ("dominates", "matches"), verdict
        assert witness is not None
        report = render_report(out)
        assert "mem+llc" in report and verdict in report

    def test_budget_is_respected(self, tmp_path):
        settings = SearchSettings(
            bench="lbm", config="4_threads_4_nodes", profile="mini",
            seed=3, budget=5, full_reps=2, screen_reps=1, population=6,
        )
        out, _ = run_search(
            EvolutionDriver, str(tmp_path / "b.sqlite"), settings
        )
        assert 0 < out.evaluations <= settings.budget
        fulls = [e for e in out.log
                 if e.get("event") == "eval" and e["phase"] == "full"]
        assert fulls, "budget must leave room for full evaluations"


class TestFaultSurvival:
    def test_search_survives_worker_kills(self, tmp_path):
        # Recoverable kills: fires <= the scheduler's default retry
        # budget, so killed attempts crash, retry, and succeed.  The
        # driver must neither raise nor lose its front.
        plan = FaultPlan(seed=7, rules=(
            FaultRule(site="worker.kill", probability=0.5, max_fires=2),
        ))
        with armed(plan) as injector:
            out, _ = run_search(GridDriver, str(tmp_path / "f.sqlite"))
            assert injector.fire_count("worker.kill") >= 1
        assert len(out.front) >= 1
        verdict, _ = verdict_vs_baseline(out, out.baselines["mem+llc"])
        assert verdict in ("dominates", "matches")

    def test_unrecoverable_kills_become_error_outcomes(self, tmp_path):
        # Unlimited deterministic kills perma-fail the targeted scopes;
        # the search records error outcomes and keeps going instead of
        # propagating JobFailed.
        plan = FaultPlan(seed=7, rules=(
            FaultRule(site="worker.kill", probability=0.4),
        ))
        with armed(plan):
            out, _ = run_search(GridDriver, str(tmp_path / "u.sqlite"))
        outcomes = {e["outcome"] for e in out.log if e["event"] == "eval"}
        assert "error" in outcomes
        assert out.evaluations > 0
