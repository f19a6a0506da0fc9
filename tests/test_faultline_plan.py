"""Unit tests for the faultline plan/decision layer.

Covers the determinism contract the whole chaos story rests on: fault
decisions are a pure function of (plan seed, site, scope), plans
survive JSON round trips unchanged, the injector enforces ``max_fires``
caps, and the process-global arming point is zero-cost (and leak-free)
when nothing — or an empty plan — is armed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.faultline import (
    NO_FAULTS,
    SITES,
    FaultInjector,
    FaultPlan,
    FaultRule,
    hooks,
)

SRC = str(Path(__file__).resolve().parent.parent / "src")


class TestFaultRuleValidation:
    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultRule(site="store.get.iomsipelled")

    # A plan naming a site with no hook point would silently never fire.
    @pytest.mark.parametrize("site", ["server.conn.drop",
                                      "server.write.partial"])
    def test_removed_server_sites_rejected(self, site):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultRule(site=site)

    def test_probability_bounds_enforced(self):
        with pytest.raises(ValueError, match="probability"):
            FaultRule(site="worker.kill", probability=1.5)
        with pytest.raises(ValueError, match="probability"):
            FaultRule(site="worker.kill", probability=-0.1)

    def test_negative_max_fires_rejected(self):
        with pytest.raises(ValueError, match="max_fires"):
            FaultRule(site="worker.kill", max_fires=-1)

    def test_scopes_canonicalized_to_tuple(self):
        rule = FaultRule(site="worker.kill", scopes=["a", "b"])
        assert rule.scopes == ("a", "b")

    def test_from_json_ignores_unknown_keys(self):
        rule = FaultRule.from_json(
            {"site": "worker.hang", "arg": 2.0, "added_in_v9": "x"}
        )
        assert rule == FaultRule(site="worker.hang", arg=2.0)


class TestPlanSerialization:
    def _plan(self) -> FaultPlan:
        return FaultPlan(seed=42, rules=(
            FaultRule(site="store.get.io", probability=0.5, max_fires=2),
            FaultRule(site="sched.attempt.kill", scopes=("abc#a0",)),
            FaultRule(site="worker.hang", arg=0.25),
        ))

    def test_dumps_loads_roundtrip_is_identity(self):
        plan = self._plan()
        assert FaultPlan.loads(plan.dumps()) == plan

    def test_wire_roundtrip_preserves_decisions(self):
        plan = self._plan()
        clone = FaultPlan.from_json(json.loads(json.dumps(plan.to_json())))
        for site in SITES:
            for i in range(50):
                scope = f"s{i}"
                assert (clone.decide(site, scope)
                        == plan.decide(site, scope))

    def test_every_site_in_catalogue_is_constructible(self):
        for site in SITES:
            FaultRule(site=site)


class TestPlanDecisions:
    def test_probability_one_always_fires(self):
        plan = FaultPlan(rules=(FaultRule(site="worker.kill"),))
        assert all(
            plan.decide("worker.kill", f"s{i}") is not None
            for i in range(100)
        )

    def test_probability_zero_never_fires_and_plan_is_empty(self):
        plan = FaultPlan(
            rules=(FaultRule(site="worker.kill", probability=0.0),)
        )
        assert plan.empty
        assert all(
            plan.decide("worker.kill", f"s{i}") is None for i in range(100)
        )

    def test_no_faults_is_empty(self):
        assert NO_FAULTS.empty
        assert not FaultPlan(rules=(FaultRule(site="worker.kill"),)).empty

    def test_decide_is_stateless(self):
        plan = FaultPlan(seed=7, rules=(
            FaultRule(site="store.get.io", probability=0.5),
        ))
        first = [plan.decide("store.get.io", f"s{i}") for i in range(200)]
        second = [plan.decide("store.get.io", f"s{i}") for i in range(200)]
        assert first == second

    def test_draw_rate_tracks_probability(self):
        plan = FaultPlan(seed=3, rules=(
            FaultRule(site="store.get.io", probability=0.5),
        ))
        fires = sum(
            plan.decide("store.get.io", f"scope-{i}") is not None
            for i in range(2000)
        )
        assert 0.40 < fires / 2000 < 0.60

    def test_seed_changes_decisions(self):
        rules = (FaultRule(site="store.get.io", probability=0.5),)
        a = FaultPlan(seed=0, rules=rules)
        b = FaultPlan(seed=1, rules=rules)
        decisions_a = [
            a.decide("store.get.io", f"s{i}") is not None for i in range(200)
        ]
        decisions_b = [
            b.decide("store.get.io", f"s{i}") is not None for i in range(200)
        ]
        assert decisions_a != decisions_b

    def test_scope_pinning_is_surgical(self):
        plan = FaultPlan(rules=(
            FaultRule(site="sched.attempt.kill", scopes=("abc#a0",)),
        ))
        assert plan.decide("sched.attempt.kill", "abc#a0") is not None
        assert plan.decide("sched.attempt.kill", "abc#a1") is None
        assert plan.decide("sched.attempt.kill", "def#a0") is None

    def test_first_matching_rule_wins_but_misses_fall_through(self):
        loud = FaultRule(site="worker.kill", probability=1.0, arg=9.0)
        silent = FaultRule(site="worker.kill", probability=0.0)
        assert FaultPlan(rules=(loud, silent)).decide(
            "worker.kill", "x") is loud
        # A rule that does not fire must not shadow a later one that does.
        assert FaultPlan(rules=(silent, loud)).decide(
            "worker.kill", "x") is loud

    def test_decisions_identical_in_a_fresh_process(self):
        """The cross-process replay guarantee, proven at decision level."""
        plan = FaultPlan(seed=1234, rules=(
            FaultRule(site="store.get.io", probability=0.5),
            FaultRule(site="sched.attempt.kill", probability=0.25),
        ))
        sites = ("store.get.io", "sched.attempt.kill")
        local = [
            plan.decide(site, f"s{i}") is not None
            for site in sites for i in range(100)
        ]
        script = (
            "import json, sys\n"
            "from repro.faultline import FaultPlan\n"
            "plan = FaultPlan.loads(sys.argv[1])\n"
            f"sites = {sites!r}\n"
            "out = [plan.decide(site, f's{i}') is not None\n"
            "       for site in sites for i in range(100)]\n"
            "print(json.dumps(out))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, plan.dumps()],
            capture_output=True, text=True, check=True,
            env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
        )
        assert json.loads(proc.stdout) == local


class TestInjector:
    def test_max_fires_caps_per_process(self):
        plan = FaultPlan(rules=(
            FaultRule(site="store.get.io", max_fires=2),
        ))
        injector = FaultInjector(plan)
        outcomes = [
            injector.check("store.get.io", f"s{i}") for i in range(5)
        ]
        assert [o is not None for o in outcomes] \
            == [True, True, False, False, False]
        assert injector.fire_count() == 2

    def test_caps_are_per_rule(self):
        plan = FaultPlan(rules=(
            FaultRule(site="store.get.io", max_fires=1),
            FaultRule(site="store.put.io", max_fires=1),
        ))
        injector = FaultInjector(plan)
        assert injector.check("store.get.io", "a") is not None
        assert injector.check("store.put.io", "a") is not None
        assert injector.check("store.get.io", "b") is None
        assert injector.check("store.put.io", "b") is None
        assert injector.fire_count("store.get.io") == 1
        assert injector.fire_count("store.put.io") == 1

    def test_fired_log_records_site_and_scope(self):
        plan = FaultPlan(rules=(FaultRule(site="worker.kill"),))
        injector = FaultInjector(plan)
        injector.check("worker.kill", "abc")
        injector.check("worker.hang", "abc")  # no rule -> no log entry
        assert injector.fired == [("worker.kill", "abc")]


class TestArmingPoint:
    def test_unarmed_should_fire_is_none(self):
        hooks.disarm()
        assert hooks.active() is None
        assert hooks.should_fire("worker.kill", "x") is None

    def test_arming_empty_plan_disarms(self):
        with hooks.armed(FaultPlan(rules=(FaultRule(site="worker.kill"),))):
            assert hooks.arm(NO_FAULTS) is None
            assert hooks.active() is None
        hooks.disarm()

    def test_armed_scope_restores_previous_injector(self):
        outer_plan = FaultPlan(rules=(FaultRule(site="worker.kill"),))
        inner_plan = FaultPlan(rules=(FaultRule(site="worker.hang"),))
        with hooks.armed(outer_plan) as outer:
            with hooks.armed(inner_plan) as inner:
                assert hooks.active() is inner
                assert hooks.should_fire("worker.hang", "x") is not None
            assert hooks.active() is outer
        assert hooks.active() is None

    def test_should_fire_books_max_fires(self):
        plan = FaultPlan(rules=(
            FaultRule(site="worker.kill", max_fires=1),
        ))
        with hooks.armed(plan) as injector:
            assert hooks.should_fire("worker.kill", "a") is not None
            assert hooks.should_fire("worker.kill", "b") is None
            assert injector.fired == [("worker.kill", "a")]
