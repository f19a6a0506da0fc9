"""End-to-end fault injection: every fault class recovers or fails typed.

The degradation invariant under test, per fault class: an injected
fault either (a) fully recovers — the job completes with a record
bit-identical to the fault-free run — or (b) surfaces as a typed
:class:`ServiceError`; never a hang, never silently-wrong data.

Also covers the ``NO_FAULTS`` behaviour-identity guarantee, and the
acceptance regression test:
a serialized plan replayed in a fresh process produces the same
per-job outcomes (what CI's failing-plan artifact relies on).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.faultline import NO_FAULTS, FaultPlan, FaultRule
from repro.faultline import campaign
from repro.faultline.campaign import (
    _run_specs,
    baseline_records,
    campaign_specs,
    canonical,
    random_plan,
    run_campaign,
    run_case,
)
from repro.faultline.faults import StoreIOFault
from repro.faultline.hooks import armed
from repro.service import (
    JobFailed,
    JobHandle,
    JobSpec,
    ResultStore,
    ServiceClient,
    ServiceError,
)

SRC = str(Path(__file__).resolve().parent.parent / "src")
REPO = str(Path(__file__).resolve().parent.parent)


def ok_runner(spec: JobSpec) -> dict:
    """Instant deterministic evaluation (module-level: fork-safe)."""
    return {"bench": spec.bench, "seed": spec.seed, "rep": spec.rep}


def stub_spec(rep: int = 0, **kw) -> JobSpec:
    return JobSpec(bench="lbm", profile="mini", rep=rep, **kw)


def mini_spec(**kw) -> JobSpec:
    """A real (tiny) synthetic simulation spec for kernel-fault tests."""
    kw.setdefault("max_retries", 0)
    return JobSpec(kind="synthetic", bench="synthetic", policy="mem+llc",
                   config="4_threads_4_nodes", profile="mini", **kw)


def plan_of(*rules: FaultRule, seed: int = 0) -> FaultPlan:
    return FaultPlan(seed=seed, rules=tuple(rules))


class TestStoreFaults:
    def test_get_io_fault_is_a_typed_oserror(self):
        store = ResultStore()
        store.put("d" * 64, {"bench": "x"}, {"v": 1})
        with armed(plan_of(FaultRule(site="store.get.io"))):
            with pytest.raises(StoreIOFault) as exc_info:
                store.get("d" * 64)
        assert isinstance(exc_info.value, OSError)

    def test_scheduler_absorbs_get_io_fault(self):
        plan = plan_of(FaultRule(site="store.get.io", max_fires=1))
        with armed(plan):
            with ServiceClient(store=ResultStore(), executor="inline",
                               runner=ok_runner) as client:
                record = client.submit(stub_spec()).result(timeout=30)
        assert record["bench"] == "lbm"
        assert client.counters["store_errors"] == 1

    def test_persistent_store_errors_are_counted_misses(self):
        plan = plan_of(FaultRule(site="store.get.io"))
        store = ResultStore()
        with armed(plan):
            with ServiceClient(store=store, executor="inline",
                               runner=ok_runner) as client:
                assert client.submit(stub_spec(rep=0)).result(timeout=30)
                assert client.submit(stub_spec(rep=1)).result(timeout=30)
                # Every lookup fails, so even a resubmission that would
                # have been a cache hit runs again; no job fails.
                assert client.submit(stub_spec(rep=0)).result(timeout=30)
        # Three lookups.  The resubmission's completed twin is the first
        # rep=0 run, i.e. its own digest, so it is not read a second time.
        assert client.counters["store_errors"] == 3
        assert client.counters["cache_hits"] == 0
        assert client.counters["completed"] == 3
        assert len(store) == 2  # writes still land

    def test_corrupt_entry_is_never_returned(self):
        store = ResultStore()
        store.put("e" * 64, {"bench": "x"}, {"v": 1})
        with armed(plan_of(FaultRule(site="store.get.corrupt"))):
            assert store.get("e" * 64) is None
        assert store.corrupt == 1
        assert store.get("e" * 64) == {"v": 1}  # entry itself is intact

    def test_corrupt_cache_recovers_bit_identical(self):
        store = ResultStore()
        with ServiceClient(store=store, executor="inline",
                           runner=ok_runner) as client:
            first = client.submit(stub_spec()).result(timeout=30)
        plan = plan_of(FaultRule(site="store.get.corrupt", max_fires=1))
        with armed(plan):
            with ServiceClient(store=store, executor="inline",
                               runner=ok_runner) as client:
                again = client.submit(stub_spec()).result(timeout=30)
        assert canonical(again) == canonical(first)
        assert client.counters["cache_hits"] == 0  # corrupt booked as miss
        assert store.corrupt == 1

    def test_put_io_fault_does_not_fail_the_job(self):
        store = ResultStore()
        with armed(plan_of(FaultRule(site="store.put.io"))):
            with ServiceClient(store=store, executor="inline",
                               runner=ok_runner) as client:
                record = client.submit(stub_spec()).result(timeout=30)
        assert record["bench"] == "lbm"
        assert client.counters["store_errors"] == 1
        assert len(store) == 0  # the write really was lost


class TestSchedulerAndWorkerFaults:
    def test_attempt_kill_is_retried_and_recovers(self):
        spec = stub_spec(max_retries=2)
        with ServiceClient(executor="inline", runner=ok_runner) as client:
            baseline = client.submit(spec).result(timeout=30)
        plan = plan_of(FaultRule(site="sched.attempt.kill",
                                 scopes=(f"{spec.digest()[:12]}#a0",)))
        with armed(plan):
            with ServiceClient(executor="inline", runner=ok_runner) as client:
                handle = client.submit(spec)
                record = handle.result(timeout=30)
        assert canonical(record) == canonical(baseline)
        assert [a["outcome"] for a in handle.attempts] == ["crash", "ok"]
        assert client.counters["crashes"] == 1
        assert client.counters["retries"] == 1

    def test_unbounded_kills_surface_typed_jobfailed(self):
        plan = plan_of(FaultRule(site="sched.attempt.kill"))
        with armed(plan):
            with ServiceClient(executor="inline", runner=ok_runner) as client:
                handle = client.submit(stub_spec(max_retries=1))
                with pytest.raises(JobFailed) as exc_info:
                    handle.result(timeout=30)
        assert isinstance(exc_info.value, ServiceError)
        assert [a["outcome"] for a in handle.attempts] == ["crash", "crash"]

    def test_worker_kill_inline_books_a_crash(self):
        plan = plan_of(FaultRule(site="worker.kill"))
        with armed(plan):
            with ServiceClient(executor="inline", runner=ok_runner) as client:
                handle = client.submit(stub_spec(max_retries=0))
                with pytest.raises(JobFailed, match="faultline"):
                    handle.result(timeout=30)
        assert handle.attempts[0]["outcome"] == "crash"

    def test_worker_kill_in_child_process(self):
        # Fork inherits the armed plan; the child hard-exits mid-attempt
        # and the parent books a crash — same typed surface as inline.
        plan = plan_of(FaultRule(site="worker.kill"))
        with armed(plan):
            with ServiceClient(executor="process", runner=ok_runner) as client:
                handle = client.submit(stub_spec(max_retries=1, timeout_s=30))
                with pytest.raises(JobFailed):
                    handle.result(timeout=60)
        assert [a["outcome"] for a in handle.attempts] \
            == ["crash", "crash"]

    def test_worker_slow_start_delays_but_recovers(self):
        with ServiceClient(executor="inline", runner=ok_runner) as client:
            baseline = client.submit(stub_spec()).result(timeout=30)
        plan = plan_of(FaultRule(site="worker.slow_start", arg=0.01))
        with armed(plan) as injector:
            with ServiceClient(executor="inline", runner=ok_runner) as client:
                record = client.submit(stub_spec()).result(timeout=30)
            assert injector.fire_count("worker.slow_start") == 1
        assert canonical(record) == canonical(baseline)

    def test_worker_hang_is_bounded_by_the_job_timeout(self):
        # The hang stalls the child forever; the parent's timeout_s is
        # the only thing standing between that and a hung campaign.
        plan = plan_of(FaultRule(site="worker.hang"))
        with armed(plan):
            with ServiceClient(executor="process", runner=ok_runner) as client:
                handle = client.submit(
                    stub_spec(max_retries=0, timeout_s=0.5)
                )
                with pytest.raises(JobFailed, match="exceeded"):
                    handle.result(timeout=60)
        assert handle.attempts[0]["outcome"] == "timeout"
        assert client.counters["timeouts"] == 1


    def test_worker_hang_sleeps_in_the_child_only(self):
        """``worker.hang`` fires only where ``in_child`` says a forked
        worker runs; called here in-process with a short hang."""
        from repro.service.worker import apply_worker_faults

        plan = plan_of(FaultRule(site="worker.hang", arg=0.01))
        with armed(plan) as injector:
            apply_worker_faults(stub_spec(), in_child=False)
            assert injector.fire_count("worker.hang") == 0
            apply_worker_faults(stub_spec(), in_child=True)
            assert injector.fire_count("worker.hang") == 1


class TestKernelFaults:
    """Kernel-layer faults, driven through the real simulation runner."""

    def test_frame_exhaustion_surfaces_typed_error(self):
        plan = plan_of(FaultRule(site="kernel.pagealloc.exhaust"))
        with armed(plan):
            with ServiceClient(executor="inline") as client:
                handle = client.submit(mini_spec())
                with pytest.raises(JobFailed) as exc_info:
                    handle.result(timeout=60)
        assert isinstance(exc_info.value, ServiceError)
        assert handle.attempts[0]["outcome"] == "err"

    def test_mmap_failure_surfaces_typed_error(self):
        plan = plan_of(FaultRule(site="kernel.mmap.fail"))
        with armed(plan):
            with ServiceClient(executor="inline") as client:
                handle = client.submit(mini_spec())
                with pytest.raises(JobFailed, match="InjectedMmapError"):
                    handle.result(timeout=60)
        assert handle.attempts[0]["outcome"] == "err"

    @pytest.mark.parametrize(
        "site", ["kernel.pagealloc.exhaust", "kernel.mmap.fail"]
    )
    def test_single_kernel_fault_recovers_bit_identical(self, site):
        """A kernel fault makes the run raise, which is final: the job
        fails typed after one attempt despite its retry budget.  A
        resubmission runs afresh and matches the fault-free record."""
        spec = mini_spec(max_retries=2)
        with ServiceClient(executor="inline") as client:
            baseline = client.submit(spec).result(timeout=60)
        plan = plan_of(FaultRule(site=site, max_fires=1))
        with armed(plan) as injector:
            with ServiceClient(executor="inline") as client:
                faulted = client.submit(spec)
                with pytest.raises(JobFailed):
                    faulted.result(timeout=60)
                record = client.submit(spec).result(timeout=60)
            assert injector.fire_count(site) == 1
        assert [a["outcome"] for a in faulted.attempts] == ["err"]
        assert canonical(record) == canonical(baseline)


class TestNoFaultsEquivalence:
    def test_no_faults_sweep_bit_identical_to_unarmed(self):
        specs = campaign_specs()
        unarmed = baseline_records(specs)
        with armed(NO_FAULTS) as injector:
            assert injector is None  # arming the empty plan is a no-op
            under_plan = baseline_records(specs)
        assert under_plan == unarmed


class TestCampaign:
    def test_random_plans_are_deterministic_and_varied(self):
        assert random_plan(5, 3) == random_plan(5, 3)
        plans = {random_plan(5, i) for i in range(6)}
        assert len(plans) == 6

    def test_short_campaign_invariant_holds(self):
        result = run_campaign(budget_s=60.0, seed=0, max_cases=3)
        assert result.ok, result.failure
        assert result.cases_run == 3
        assert result.failure is None

    def test_run_case_reports_no_violation_for_empty_plan(self):
        assert run_case(NO_FAULTS) is None

    @pytest.mark.parametrize("kind, payload, message", [
        ("hang", "not done after 60s", "hung: not done after 60s"),
        ("untyped", KeyError("k"), "raised an untyped error: KeyError"),
        ("ok", {"runtime": 2.0}, "not bit-identical to the fault-free"),
    ])
    def test_run_case_names_each_violation(self, monkeypatch, kind, payload,
                                           message):
        """Each invariant breach the campaign checks is reported."""
        specs = campaign_specs()
        baseline = {s.digest(): canonical({"runtime": 1.0}) for s in specs}
        monkeypatch.setattr(campaign, "_run_specs", lambda specs, executor: {
            s.digest(): (kind, payload) for s in specs
        })
        assert message in run_case(NO_FAULTS, specs, baseline)

    def test_failed_baseline_aborts_the_campaign(self, monkeypatch):
        monkeypatch.setattr(campaign, "_run_specs", lambda specs, executor: {
            "d": ("error", "store down")
        })
        with pytest.raises(RuntimeError, match="baseline run failed for d"):
            baseline_records([])

    def test_campaign_stops_at_the_first_violation(self, monkeypatch):
        monkeypatch.setattr(campaign, "baseline_records",
                            lambda specs, executor: {})
        monkeypatch.setattr(
            campaign, "run_case",
            lambda plan, specs, baseline, executor:
            "boom" if plan == random_plan(3, 1) else None,
        )
        seen = []
        result = run_campaign(budget_s=60.0, seed=3,
                              on_case=lambda i, plan: seen.append(i))
        assert not result.ok and result.cases_run == 2 and seen == [0, 1]
        assert result.failure.case_index == 1
        assert result.failure.detail == "boom"
        assert run_campaign(budget_s=0.0, seed=3).cases_run == 0

    def test_a_job_past_the_deadline_is_a_hang(self, monkeypatch):
        monkeypatch.setattr(JobHandle, "wait", lambda self, timeout=None: False)
        results = _run_specs(campaign_specs()[:1], "inline")
        assert [kind for kind, _ in results.values()] == ["hang"]

    def test_an_untyped_result_error_is_recorded(self, monkeypatch):
        def broken(self, timeout=None):
            raise KeyError("result lost")

        monkeypatch.setattr(JobHandle, "result", broken)
        results = _run_specs(campaign_specs()[:1], "inline")
        [(kind, payload)] = results.values()
        assert kind == "untyped" and isinstance(payload, KeyError)

    def test_failing_plan_replays_in_fresh_process(self, tmp_path):
        """Acceptance regression: a serialized plan reproduces the same
        per-job outcomes in a brand-new interpreter.

        Only cap-free rules here: with no ``max_fires`` bookkeeping,
        every decision is a pure (seed, site, scope) function and the
        fresh process must match outcome-for-outcome regardless of
        thread interleaving.
        """
        plan = plan_of(
            FaultRule(site="sched.attempt.kill", probability=0.5),
            FaultRule(site="store.put.io", probability=0.5),
            seed=99,
        )
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(plan.dumps() + "\n")

        specs = campaign_specs()
        with armed(plan):
            results = _run_specs(specs, "inline")
        local = {
            digest: [kind,
                     canonical(payload) if kind == "ok"
                     else type(payload).__name__]
            for digest, (kind, payload) in results.items()
        }

        script = (
            "import json, sys\n"
            "from repro.faultline import FaultPlan\n"
            "from repro.faultline.hooks import armed\n"
            "from repro.faultline.campaign import (\n"
            "    _run_specs, campaign_specs, canonical)\n"
            "plan = FaultPlan.loads(open(sys.argv[1]).read())\n"
            "with armed(plan):\n"
            "    results = _run_specs(campaign_specs(), 'inline')\n"
            "out = {d: [k, canonical(p) if k == 'ok' else type(p).__name__]\n"
            "       for d, (k, p) in results.items()}\n"
            "print(json.dumps(out, sort_keys=True))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, str(plan_path)],
            capture_output=True, text=True, check=True,
            env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
        )
        assert json.loads(proc.stdout) == local

        # And the CI replay entry point agrees the invariant held.
        replay = subprocess.run(
            [sys.executable, str(Path(REPO) / "tools" / "chaos_sim.py"),
             "--replay", str(plan_path)],
            capture_output=True, text=True,
            env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
        )
        assert replay.returncode == 0, replay.stdout + replay.stderr
        assert "invariant held" in replay.stdout
