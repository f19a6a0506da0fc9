"""Scheduler semantics: caching, dedup, FIFO order, failure paths.

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
from repro.faultline.faults import WorkerKillFault
from repro.search.space import SearchSpace
from repro.obs.metrics import MetricsRegistry, find_metric
from repro.service import (
    JobFailed,
    JobSpec,
    JobStatus,
    ResultStore,
    Scheduler,
    ServiceError,
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
        assert stats["failed"] == 0

    def test_results_keyed_by_submission_not_completion(self):
        with Scheduler(executor="inline", runner=ok_runner, shards=4) as sched:
            handles = [sched.submit(spec(i)) for i in range(8)]
            results = [h.result(10) for h in handles]
        assert [r["seed"] for r in results] == list(range(8))


class TestCachingAndDedup:
    def test_cache_hit_returns_identical_payload(self):
        store = ResultStore()
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

        registry = MetricsRegistry()
        with Scheduler(executor="inline", runner=gated,
                       metrics=registry) as sched:
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
        assert find_metric(registry.snapshot(), "counters", "sched.jobs",
                           outcome="dedup")["value"] == 1

    def test_result_times_out_and_shut_down_scheduler_refuses(self):
        gate = threading.Event()

        def gated(s: JobSpec) -> dict:
            gate.wait(10)
            return {"seed": s.seed}

        with Scheduler(executor="inline", runner=gated) as sched:
            handle = sched.submit(spec(6))
            with pytest.raises(TimeoutError, match="not done after 0.01s"):
                handle.result(0.01)
            gate.set()
            assert handle.result(10) == {"seed": 6}
        with pytest.raises(ServiceError, match="shut down"):
            sched.submit(spec(7))

    def test_force_run_bypasses_cache(self):
        store = ResultStore()
        with Scheduler(executor="inline", runner=ok_runner,
                       store=store) as sched:
            sched.submit(spec(7)).result(10)
            forced = sched.submit(spec(7, force_run=True))
            assert forced.result(10) == {"bench": "lbm", "seed": 7}
            assert not forced.from_cache
            stats = sched.stats()
        assert stats["cache_hits"] == 0


class _FailingGetStore(ResultStore):
    """A store whose reads always fail."""

    def get(self, digest: str):
        raise OSError("injected store read failure")


class _LosingPutStore(ResultStore):
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
        store = ResultStore()
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
                       store=ResultStore()) as sched:
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

    def test_failing_store_runs_both_twins(self):
        custom, named = self._twins()
        calls, runner = self._counting_runner()
        with Scheduler(executor="inline", runner=runner,
                       store=_FailingGetStore()) as sched:
            sched.submit(custom).result(10)
            named_handle = sched.submit(named)
            assert named_handle.result(10)["policy"] == "mem+llc"
            assert not named_handle.from_cache
            stats = sched.stats()
        assert calls == [custom.digest(), named.digest()]
        # The custom lookup, the named lookup and the twin's record read.
        assert stats["store_errors"] == 3
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
                       store=ResultStore()) as sched:
            for policy in ("buddy", "mem+llc"):
                handle = sched.submit(spec(policy=policy, config="cfg"))
                assert handle.result(10)["policy"] == policy
                assert not handle.from_cache
        assert len(calls) == 2


class TestFifo:
    def test_single_slot_runs_in_submission_order(self):
        gate = threading.Event()
        order = []

        def recording(s: JobSpec) -> dict:
            if s.bench == "gate":
                gate.wait(10)
            else:
                order.append(s.seed)
            return {}

        try:
            with Scheduler(executor="inline", runner=recording,
                           shards=1) as sched:
                blocker = sched.submit(spec(0, bench="gate"))
                deadline = time.monotonic() + 5
                while blocker.status is JobStatus.QUEUED:
                    assert time.monotonic() < deadline
                    time.sleep(0.005)
                seeds = [5, 1, 4, 2, 3]
                handles = [sched.submit(spec(seed)) for seed in seeds]
                assert sched.stats()["queue_depth"] == len(seeds)
                gate.set()
                for handle in handles:
                    handle.result(10)
        finally:
            gate.set()
        assert order == seeds


class TestFailurePaths:
    def test_error_runs_once_and_is_not_retried(self):
        calls = []

        def flaky(s: JobSpec) -> dict:
            calls.append(s.seed)
            raise ValueError("always fails")

        # A deterministic simulation that raised raises again: an err
        # outcome is final, whatever the retry budget.
        with Scheduler(executor="inline", runner=flaky) as sched:
            handle = sched.submit(spec(1, max_retries=2))
            with pytest.raises(JobFailed, match="always fails") as exc:
                handle.result(20)
            stats = sched.stats()
        assert [a["outcome"] for a in exc.value.attempts] == ["err"]
        assert [a["attempt"] for a in exc.value.attempts] == [0]
        assert len(calls) == 1
        assert stats["retries"] == 0
        assert stats["errors"] == 1
        assert stats["failed"] == 1

    def test_retry_recovers_after_transient_error(self):
        attempts = []

        def transient(s: JobSpec) -> dict:
            attempts.append(s.seed)
            if len(attempts) < 2:
                raise WorkerKillFault("worker.kill", "test")  # a crash
            return {"recovered": True}

        with Scheduler(executor="inline", runner=transient) as sched:
            handle = sched.submit(spec(1, max_retries=2))
            assert handle.result(20) == {"recovered": True}
            assert [a["outcome"] for a in handle.attempts] == ["crash", "ok"]
            assert sched.stats()["retries"] == 1

    def test_job_timeout_enforced_and_counted(self):
        with Scheduler(executor="process", runner=sleep_runner) as sched:
            handle = sched.submit(spec(1, timeout_s=0.2, max_retries=1))
            with pytest.raises(JobFailed) as exc:
                handle.result(30)
            stats = sched.stats()
        assert [a["outcome"] for a in exc.value.attempts] == ["timeout"] * 2
        assert stats["timeouts"] == 2
        assert "0.2" in str(exc.value)


class TestWorkerCrashIsolation:
    def test_crash_is_retried_and_recovers(self, tmp_path):
        with Scheduler(executor="process", runner=crash_once_runner) as sched:
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

        with Scheduler(executor="process", runner=mixed, shards=2) as sched:
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
        with Scheduler(executor="process", runner=crash_runner) as sched:
            handle = sched.submit(spec(1, max_retries=1))
            with pytest.raises(JobFailed) as exc:
                handle.result(30)
        assert "exited with code 13" in str(exc.value)
        assert [a["outcome"] for a in exc.value.attempts] == ["crash"] * 2


def orphaning_crash_runner(s: JobSpec) -> dict:
    """Die without reporting while a forked grandchild keeps the result
    pipe open for two seconds, so the parent never sees its EOF."""
    if os.fork() == 0:
        time.sleep(2.0)
        os._exit(0)
    os._exit(13)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_dead_worker_is_a_crash_while_its_pipe_stays_open():
    """A worker that exits while something it forked still holds the
    pipe is booked as a crash from its exit, not the pipe's EOF."""
    start = time.monotonic()
    with Scheduler(executor="process", runner=orphaning_crash_runner) as sched:
        handle = sched.submit(spec(1, max_retries=0))
        with pytest.raises(JobFailed, match="exited with code 13"):
            handle.result(30)
    assert time.monotonic() - start < 1.5
    assert [a["outcome"] for a in handle.attempts] == ["crash"]


class TestChildMainInProcess:
    """``child_main`` is the forked worker's body; called here with a
    pipe in this process, so its reports are checked without a fork."""

    @staticmethod
    def _run(monkeypatch, runner, metrics: bool) -> tuple:
        import multiprocessing as mp

        from repro.obs import metrics as obs_metrics
        from repro.service.worker import child_main

        monkeypatch.setattr(obs_metrics, "_ACTIVE", None)
        recv, send = mp.Pipe(duplex=False)
        child_main(send, runner, spec(4), metrics)
        msg = recv.recv()
        recv.close()
        return msg

    def test_ok_with_metrics_sends_result_and_snapshot(self, monkeypatch):
        msg = self._run(monkeypatch, ok_runner, metrics=True)
        assert msg[:2] == ("ok", {"bench": "lbm", "seed": 4})
        assert set(msg[2]) >= {"counters", "gauges", "histograms"}

    def test_error_without_metrics_sends_type_message_and_traceback(
        self, monkeypatch,
    ):
        kind, text, tb, snapshot = self._run(monkeypatch, fail_runner,
                                             metrics=False)
        assert kind == "err"
        assert text == "ValueError: injected failure for seed 4"
        assert "fail_runner" in tb
        assert snapshot is None
