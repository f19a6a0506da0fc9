"""Sanitizer plumbing: levels, cadence, observer forwarding, zero effect.

The negative (injected-corruption) tests live in
``test_sanitize_injected.py``; this file covers the machinery itself and
the *positive* guarantee: arming the sanitizer on a healthy run changes
nothing about the results.
"""

from __future__ import annotations

import pytest

from repro.alloc.policies import Policy
from repro.experiments.runner import run_benchmark, run_synthetic
from repro.obs import Observer
from repro.sanitize import (
    CHEAP_CHECK_EVERY,
    FULL_CHECK_EVERY,
    Checker,
    Sanitizer,
    SanitizerObserver,
    SanitizeViolation,
)


class RecordingChecker(Checker):
    layer = "test"

    def __init__(self):
        self.full_calls = 0
        self.fast_calls = 0

    def check(self):
        self.full_calls += 1

    def check_fast(self):
        self.fast_calls += 1


class TestSanitizer:
    def test_rejects_off_and_bad_cadence(self):
        with pytest.raises(ValueError):
            Sanitizer("off")
        with pytest.raises(ValueError):
            Sanitizer("bogus")
        with pytest.raises(ValueError):
            Sanitizer("full", check_every=0)

    def test_level_defaults(self):
        assert Sanitizer("full").check_every == FULL_CHECK_EVERY
        assert Sanitizer("cheap").check_every == CHEAP_CHECK_EVERY

    def test_tick_cadence_full_runs_full_walk(self):
        s = Sanitizer("full", check_every=10)
        c = RecordingChecker()
        s.add(c)
        for _ in range(35):
            s.tick()
        assert s.events_seen == 35
        assert s.sampled_checks == 3
        assert c.full_calls == 3 and c.fast_calls == 0

    def test_tick_cadence_cheap_runs_fast_subset(self):
        s = Sanitizer("cheap", check_every=5)
        c = RecordingChecker()
        s.add(c)
        for _ in range(12):
            s.tick()
        assert c.fast_calls == 2 and c.full_calls == 0

    def test_checkpoint_always_full(self):
        for level in ("cheap", "full"):
            s = Sanitizer(level)
            c = RecordingChecker()
            s.add(c)
            s.checkpoint("boot")
            assert c.full_calls == 1
            assert s.checkpoints == 1


class TestSanitizeViolation:
    def test_structured_fields_and_message(self):
        err = SanitizeViolation("cache", "set-overflow", "9 lines in set 3",
                                {"set": 3})
        assert isinstance(err, AssertionError)
        assert err.layer == "cache"
        assert err.invariant == "set-overflow"
        assert err.context == {"set": 3}
        assert str(err) == "[cache] set-overflow: 9 lines in set 3"

    def test_checker_fail_raises(self):
        class Broken(Checker):
            layer = "x"

            def check(self):
                self.fail("bad", "always", pfn=1)

        with pytest.raises(SanitizeViolation) as exc:
            Broken().check()
        assert exc.value.layer == "x"
        assert exc.value.context == {"pfn": 1}


class TestSanitizerObserver:
    def test_is_enabled_and_forwards_to_inner(self):
        inner = Observer()
        obs = SanitizerObserver.for_level("full", inner=inner, check_every=2)
        assert obs.enabled
        obs.span("compute", 0.0, 5.0)
        obs.instant("fault", 1.0)
        obs.maybe_sample(2.0)
        obs.sample(3.0)  # forwarded; a forced sample is not an event
        assert obs.sanitizer.events_seen == 3
        assert [e.name for e in inner.events] == ["compute", "fault"]
        assert inner.samples.last()[0] == 3.0

    def test_now_proxies_inner_clock(self):
        inner = Observer()
        obs = SanitizerObserver.for_level("cheap", inner=inner)
        obs.now = 42.0
        assert inner.now == 42.0
        assert obs.now == 42.0

    def test_checkpoint_and_finish_run_full_walks(self):
        obs = SanitizerObserver.for_level("full")
        c = RecordingChecker()
        obs.sanitizer.add(c)
        obs.checkpoint("section", 10.0)
        obs.finish(20.0)
        assert c.full_calls == 2
        assert obs.sanitizer.checkpoints == 2


class TestSanitizedRunsAreBitIdentical:
    """--sanitize must never change results, only abort corrupted runs."""

    def test_benchmark_records_identical_across_levels(self):
        base = run_benchmark("lbm", Policy.MEM_LLC, "16_threads_4_nodes",
                             profile="mini")
        for level in ("cheap", "full"):
            armed = run_benchmark("lbm", Policy.MEM_LLC, "16_threads_4_nodes",
                                  profile="mini", sanitize=level)
            assert armed == base, f"sanitize={level} perturbed the run"

    def test_synthetic_record_identical_and_checks_ran(self):
        base = run_synthetic(Policy.BUDDY, profile="mini")
        armed = run_synthetic(Policy.BUDDY, profile="mini", sanitize="full")
        assert armed == base
