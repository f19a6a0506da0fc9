"""Scheduler semantics: dedup, priority, backpressure, failure paths.

Fault injection happens at the ``runner`` seam: the scheduler executes
an arbitrary ``(JobSpec) -> dict`` callable per attempt, so tests
substitute runners that block, raise, sleep, or ``os._exit`` — the last
one exercising real child-process crashes that must not take down the
worker pool (the ISSUE's headline failure mode).
"""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro.alloc.policies import Policy
from repro.search.space import SearchSpace
from repro.service import (
    BackpressureError,
    FakeClock,
    JobCancelled,
    JobFailed,
    JobSpec,
    JobStatus,
    MemoryStore,
    Scheduler,
)

# Specs are distinguished by seed so each gets its own digest.
def spec(seed: int = 0, **kw) -> JobSpec:
    kw.setdefault("bench", "lbm")
    kw.setdefault("profile", "mini")
    return JobSpec(seed=seed, **kw)


def ok_runner(s: JobSpec) -> dict:
    return {"bench": s.bench, "seed": s.seed}


def sleep_runner(s: JobSpec) -> dict:
    time.sleep(30)
    return {}


def fail_runner(s: JobSpec) -> dict:
    raise ValueError(f"injected failure for seed {s.seed}")


def crash_runner(s: JobSpec) -> dict:
    os._exit(13)  # hard exit: no exception, no pipe message


def crash_once_runner(s: JobSpec) -> dict:
    """Crash the first attempt, succeed on retry (marker on disk because
    attempts run in separate processes)."""
    marker = os.path.join(s.trace_dir, f"seed{s.seed}.marker")
    if not os.path.exists(marker):
        open(marker, "w").close()
        os._exit(13)
    return {"bench": s.bench, "seed": s.seed, "recovered": True}


class TestHappyPath:
    def test_inline_completes_and_counts(self):
        with Scheduler(executor="inline", runner=ok_runner) as sched:
            handle = sched.submit(spec(1))
            assert handle.result(10) == {"bench": "lbm", "seed": 1}
            assert handle.status is JobStatus.COMPLETED
            stats = sched.stats()
        assert stats["completed"] == 1
        assert stats["failed"] == stats["cancelled"] == 0

    def test_results_keyed_by_submission_not_completion(self):
        with Scheduler(executor="inline", runner=ok_runner, shards=4) as sched:
            handles = [sched.submit(spec(i)) for i in range(8)]
            results = [h.result(10) for h in handles]
        assert [r["seed"] for r in results] == list(range(8))

    def test_shard_routing_is_digest_stable(self):
        with Scheduler(executor="inline", runner=ok_runner, shards=3) as sched:
            a = sched.submit(spec(1))
            a.result(10)
        with Scheduler(executor="inline", runner=ok_runner, shards=3) as sched:
            b = sched.submit(spec(1))
            b.result(10)
        assert a.digest == b.digest


class TestCachingAndDedup:
    def test_cache_hit_returns_identical_payload(self):
        store = MemoryStore()
        with Scheduler(executor="inline", runner=ok_runner,
                       store=store) as sched:
            cold = sched.submit(spec(3))
            cold_result = cold.result(10)
            hit = sched.submit(spec(3))
            assert hit.from_cache
            assert hit.result(10) == cold_result
            stats = sched.stats()
        assert stats["cache_hits"] == 1
        assert stats["cache_misses"] == 1
        assert store.stats()["puts"] == 1

    def test_inflight_dedup_runs_once(self):
        gate = threading.Event()
        calls = []

        def gated(s: JobSpec) -> dict:
            calls.append(s.seed)
            gate.wait(10)
            return {"seed": s.seed}

        with Scheduler(executor="inline", runner=gated) as sched:
            first = sched.submit(spec(5))
            # Wait until the job is actually running, then resubmit.
            deadline = time.monotonic() + 5
            while first.status is JobStatus.QUEUED:
                assert time.monotonic() < deadline
                time.sleep(0.005)
            dup = sched.submit(spec(5))
            gate.set()
            assert first.result(10) == dup.result(10) == {"seed": 5}
            stats = sched.stats()
        assert calls == [5]
        assert stats["dedup_hits"] == 1

    def test_force_run_bypasses_cache(self):
        store = MemoryStore()
        with Scheduler(executor="inline", runner=ok_runner,
                       store=store) as sched:
            sched.submit(spec(7)).result(10)
            forced = sched.submit(spec(7, force_run=True))
            assert forced.result(10) == {"bench": "lbm", "seed": 7}
            assert not forced.from_cache
            stats = sched.stats()
        assert stats["cache_hits"] == 0


class _FailingGetStore(MemoryStore):
    """A store whose reads always fail (demoted after the first)."""

    def get(self, digest: str):
        raise OSError("injected store read failure")


class _LosingPutStore(MemoryStore):
    """A store that acknowledges writes but keeps none of them."""

    def put(self, digest: str, spec: dict, record: dict) -> None:
        pass


class TestTwinReuse:
    """A job whose applied policy already ran under another label is
    served from the stored record of that run, relabeled."""

    def _twins(self) -> tuple[JobSpec, JobSpec]:
        genome = SearchSpace("16_threads_4_nodes", "mini").paper_genome(
            Policy.MEM_LLC
        )
        return spec(policy=genome.phenotype()), spec(policy="mem+llc")

    def _counting_runner(self):
        calls = []

        def runner(s: JobSpec) -> dict:
            calls.append(s.digest())
            return {"policy": s.policy_label, "seed": s.seed}

        return calls, runner

    def test_named_spec_reuses_completed_custom_twin(self):
        custom, named = self._twins()
        store = MemoryStore()
        calls, runner = self._counting_runner()
        with Scheduler(executor="inline", runner=runner,
                       store=store) as sched:
            first = sched.submit(custom)
            assert first.result(10)["policy"] == custom.policy_label
            second = sched.submit(named)
            assert second.from_cache
            assert second.result(10) == {"policy": "mem+llc", "seed": 0}
            stats = sched.stats()
        assert calls == [custom.digest()]
        assert store.get(named.digest())["policy"] == "mem+llc"
        assert store.get(custom.digest())["policy"] == custom.policy_label
        assert stats["cache_hits"] == 1
        assert stats["cache_misses"] == 1

    def test_custom_spec_reuses_completed_named_twin(self):
        custom, named = self._twins()
        calls, runner = self._counting_runner()
        with Scheduler(executor="inline", runner=runner,
                       store=MemoryStore()) as sched:
            sched.submit(named).result(10)
            second = sched.submit(custom)
            assert second.from_cache
            assert second.result(10)["policy"] == custom.policy_label
        assert calls == [named.digest()]

    def test_without_store_both_twins_run(self):
        custom, named = self._twins()
        calls, runner = self._counting_runner()
        with Scheduler(executor="inline", runner=runner) as sched:
            sched.submit(custom).result(10)
            assert not sched.submit(named).from_cache
            sched.drain(10)
        assert calls == [custom.digest(), named.digest()]

    def test_demoted_store_runs_both_twins(self):
        custom, named = self._twins()
        calls, runner = self._counting_runner()
        with Scheduler(executor="inline", runner=runner,
                       store=_FailingGetStore(),
                       store_failure_limit=1) as sched:
            sched.submit(custom).result(10)
            named_handle = sched.submit(named)
            assert named_handle.result(10)["policy"] == "mem+llc"
            assert not named_handle.from_cache
            stats = sched.stats()
        assert calls == [custom.digest(), named.digest()]
        assert stats["store_demotions"] == 1
        assert stats["cache_hits"] == 0

    def test_missing_twin_record_falls_back_to_running(self):
        custom, named = self._twins()
        calls, runner = self._counting_runner()
        with Scheduler(executor="inline", runner=runner,
                       store=_LosingPutStore()) as sched:
            sched.submit(custom).result(10)
            assert not sched.submit(named).from_cache
            sched.drain(10)
        assert calls == [custom.digest(), named.digest()]

    def test_config_outside_configs_still_runs(self):
        calls, runner = self._counting_runner()
        with Scheduler(executor="inline", runner=runner,
                       store=MemoryStore()) as sched:
            for policy in ("buddy", "mem+llc"):
                handle = sched.submit(spec(policy=policy, config="cfg"))
                assert handle.result(10)["policy"] == policy
                assert not handle.from_cache
        assert len(calls) == 2


class TestPriorityAndBackpressure:
    def test_higher_priority_runs_first(self):
        gate = threading.Event()
        order = []

        def recording(s: JobSpec) -> dict:
            if s.bench == "gate":
                gate.wait(10)
            else:
                order.append(s.seed)
            return {}

        with Scheduler(executor="inline", runner=recording,
                       shards=1) as sched:
            blocker = sched.submit(spec(0, bench="gate"))
            deadline = time.monotonic() + 5
            while blocker.status is JobStatus.QUEUED:
                assert time.monotonic() < deadline
                time.sleep(0.005)
            low = sched.submit(spec(1, priority=0))
            high = sched.submit(spec(2, priority=10))
            gate.set()
            low.result(10)
            high.result(10)
        assert order == [2, 1]

    def test_bounded_queue_backpressure(self):
        gate = threading.Event()

        def gated(s: JobSpec) -> dict:
            gate.wait(10)
            return {}

        try:
            with Scheduler(executor="inline", runner=gated, shards=1,
                           queue_capacity=1) as sched:
                running = sched.submit(spec(1))
                deadline = time.monotonic() + 5
                while running.status is JobStatus.QUEUED:
                    assert time.monotonic() < deadline
                    time.sleep(0.005)
                queued = sched.submit(spec(2))  # fills the bounded queue
                with pytest.raises(BackpressureError):
                    sched.submit(spec(3), block=False)
                with pytest.raises(BackpressureError):
                    sched.submit(spec(3), timeout=0.05)
                gate.set()
                running.result(10)
                queued.result(10)
                # Space freed: the same spec now submits fine.
                assert sched.submit(spec(3)).result(10) == {}
        finally:
            gate.set()


class TestFailurePaths:
    def test_error_retries_with_backoff_then_fails(self):
        calls = []

        def flaky(s: JobSpec) -> dict:
            calls.append(s.seed)
            raise ValueError("always fails")

        # Deflaked: backoff flows through an injected FakeClock, so the
        # test asserts the exact exponential *schedule* instead of
        # measuring real sleeps (which flake on loaded CI hosts).  A
        # poll interval above backoff_max_s makes each backoff a single
        # virtual sleep.
        base = 0.05
        clock = FakeClock()
        with Scheduler(executor="inline", runner=flaky, clock=clock,
                       backoff_base_s=base, poll_interval_s=10.0) as sched:
            handle = sched.submit(spec(1, max_retries=2))
            with pytest.raises(JobFailed) as exc:
                handle.result(20)
            stats = sched.stats()
        # Attempt history is ordered and complete: 1 initial + 2 retries.
        assert [a["outcome"] for a in exc.value.attempts] == ["err"] * 3
        assert [a["attempt"] for a in exc.value.attempts] == [0, 1, 2]
        assert len(calls) == 3
        # Backoff ordering: virtual gaps follow the exponential schedule
        # exactly (base * 2**attempt).
        assert clock.sleeps == pytest.approx([base, 2 * base])
        assert stats["retries"] == 2
        assert stats["errors"] == 3
        assert stats["failed"] == 1

    def test_retry_recovers_after_transient_error(self):
        attempts = []

        def transient(s: JobSpec) -> dict:
            attempts.append(s.seed)
            if len(attempts) < 2:
                raise ValueError("transient")
            return {"recovered": True}

        with Scheduler(executor="inline", runner=transient,
                       backoff_base_s=0.01) as sched:
            handle = sched.submit(spec(1, max_retries=2))
            assert handle.result(20) == {"recovered": True}
            assert [a["outcome"] for a in handle.attempts] == ["err", "ok"]

    def test_job_timeout_enforced_and_counted(self):
        with Scheduler(executor="process", runner=sleep_runner,
                       backoff_base_s=0.01) as sched:
            handle = sched.submit(spec(1, timeout_s=0.2, max_retries=1))
            with pytest.raises(JobFailed) as exc:
                handle.result(30)
            stats = sched.stats()
        assert [a["outcome"] for a in exc.value.attempts] == ["timeout"] * 2
        assert stats["timeouts"] == 2
        assert "0.2" in str(exc.value)

    def test_cancel_queued_job(self):
        gate = threading.Event()

        def gated(s: JobSpec) -> dict:
            gate.wait(10)
            return {}

        try:
            with Scheduler(executor="inline", runner=gated, shards=1) as sched:
                blocker = sched.submit(spec(1))
                deadline = time.monotonic() + 5
                while blocker.status is JobStatus.QUEUED:
                    assert time.monotonic() < deadline
                    time.sleep(0.005)
                queued = sched.submit(spec(2))
                assert queued.cancel()
                assert queued.status is JobStatus.CANCELLED
                with pytest.raises(JobCancelled):
                    queued.result(1)
                gate.set()
                blocker.result(10)
                stats = sched.stats()
            assert stats["cancelled"] == 1
            assert stats["completed"] == 1
        finally:
            gate.set()

    def test_cancel_mid_run_terminates_worker(self):
        with Scheduler(executor="process", runner=sleep_runner) as sched:
            handle = sched.submit(spec(1))
            deadline = time.monotonic() + 5
            while handle.status is not JobStatus.RUNNING:
                assert time.monotonic() < deadline
                time.sleep(0.005)
            t0 = time.monotonic()
            assert handle.cancel()
            with pytest.raises(JobCancelled):
                handle.result(10)
            # Termination, not the runner's 30 s sleep.
            assert time.monotonic() - t0 < 5
            assert sched.stats()["cancelled"] == 1

    def test_cancel_terminal_job_returns_false(self):
        with Scheduler(executor="inline", runner=ok_runner) as sched:
            handle = sched.submit(spec(1))
            handle.result(10)
            assert not handle.cancel()


class TestObservability:
    def test_counters_and_spans_exported_via_obs(self):
        from repro.obs import Observer, SpanEvent

        observer = Observer(sample_interval_ns=0.0)
        store = MemoryStore()
        with Scheduler(executor="inline", runner=ok_runner, store=store,
                       observer=observer) as sched:
            sched.submit(spec(1)).result(10)
            sched.submit(spec(1)).result(10)  # cache hit
            names = observer.counter_names
            assert "service.cache_hits" in names
            assert "service.cache_misses" in names
            assert "service.store.entries" in names
            observer.sample(1.0)
            row = dict(zip(names, observer.samples.last()[1]))
        assert row["service.cache_hits"] == 1.0
        assert row["service.cache_misses"] == 1.0
        assert row["service.completed"] == 1.0
        assert row["service.store.entries"] == 1.0
        spans = [e for e in observer.events if isinstance(e, SpanEvent)
                 and e.track == "service"]
        assert len(spans) == 1  # one execution attempt, cache hit adds none
        assert spans[0].args["outcome"] == "ok"

    def test_retry_emits_instant_events(self):
        from repro.obs import InstantEvent, Observer

        observer = Observer(sample_interval_ns=0.0)

        def flaky(s: JobSpec) -> dict:
            if len([e for e in observer.events
                    if isinstance(e, InstantEvent)]) == 0:
                raise ValueError("first attempt fails")
            return {}

        with Scheduler(executor="inline", runner=flaky, observer=observer,
                       backoff_base_s=0.01) as sched:
            sched.submit(spec(1, max_retries=1)).result(10)
        retries = [e for e in observer.events
                   if isinstance(e, InstantEvent) and e.track == "service"]
        assert len(retries) == 1
        assert retries[0].args["reason"] == "err"


class TestWorkerCrashIsolation:
    def test_crash_is_retried_and_recovers(self, tmp_path):
        with Scheduler(executor="process", runner=crash_once_runner,
                       backoff_base_s=0.01) as sched:
            handle = sched.submit(
                spec(1, trace_dir=str(tmp_path), force_run=True,
                     max_retries=2)
            )
            result = handle.result(30)
            stats = sched.stats()
        assert result["recovered"] is True
        assert [a["outcome"] for a in handle.attempts] == ["crash", "ok"]
        assert stats["crashes"] == 1
        assert stats["retries"] == 1

    def test_crashes_do_not_take_down_the_pool(self, tmp_path):
        """Crashing workers and healthy jobs interleave; all complete."""

        def mixed(s: JobSpec) -> dict:
            if s.bench == "crashy":
                return crash_once_runner(s)
            return {"bench": s.bench, "seed": s.seed}

        with Scheduler(executor="process", runner=mixed, shards=2,
                       backoff_base_s=0.01) as sched:
            handles = []
            for i in range(3):
                handles.append(sched.submit(
                    spec(i, bench="crashy", trace_dir=str(tmp_path),
                         force_run=True, max_retries=2)
                ))
                handles.append(sched.submit(spec(i, bench="healthy")))
            results = [h.result(60) for h in handles]
            stats = sched.stats()
        assert all(r is not None for r in results)
        assert stats["completed"] == 6
        assert stats["crashes"] == 3
        # The pool survived every crash: jobs submitted after the crashes
        # still ran to completion on the same shard threads.
        assert stats["failed"] == 0

    def test_exhausted_crash_retries_fail_cleanly(self):
        with Scheduler(executor="process", runner=crash_runner,
                       backoff_base_s=0.01) as sched:
            handle = sched.submit(spec(1, max_retries=1))
            with pytest.raises(JobFailed) as exc:
                handle.result(30)
        assert "exited with code 13" in str(exc.value)
        assert [a["outcome"] for a in exc.value.attempts] == ["crash"] * 2
