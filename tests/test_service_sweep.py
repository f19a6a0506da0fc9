"""sweep()-through-service integration: caching, fast path, identity.

Covers the acceptance criteria end to end on the real simulator (mini
profile): a sweep submitted twice through the service gets >= 95% cache
hits on the second pass with bit-identical records, the serial fast
path never forks a worker process, and serial/pooled paths agree.
"""

from __future__ import annotations

import pytest

from repro.alloc.policies import Policy
from repro.experiments.runner import sweep
from repro.service import JobSpec, MemoryStore, ServiceClient
from repro.service.scheduler import Scheduler

BENCHES = ["lbm", "blackscholes"]
POLICIES = [Policy.BUDDY, Policy.MEM_LLC]
CONFIGS = ["4_threads_4_nodes"]
KWARGS = dict(benches=BENCHES, policies=POLICIES, configs=CONFIGS,
              reps=2, profile="mini", seed=3)


class TestSerialFastPath:
    def test_single_worker_never_forks(self, monkeypatch):
        """Satellite regression: workers == 1 (or a single job) must run
        inline — no worker process is ever spawned."""

        def forbidden(self, job):
            raise AssertionError("serial sweep spawned a worker process")

        monkeypatch.setattr(Scheduler, "_execute_in_process", forbidden)
        records = sweep(parallel=True, max_workers=1, **KWARGS)
        assert len(records) == 8
        # parallel=False and single-job sweeps take the same inline path.
        assert sweep(parallel=False, **KWARGS) == records
        single = sweep(benches=["lbm"], policies=[Policy.BUDDY],
                       configs=CONFIGS, reps=1, profile="mini", seed=3)
        assert len(single) == 1

    def test_traced_serial_sweep_exports_one_bundle_per_run(self, tmp_path):
        """``trace_dir`` (the CLI's ``--trace-out``): each job records its
        own observer and exports Perfetto, JSONL and counter CSV."""
        records = sweep(benches=["lbm"], policies=[Policy.BUDDY],
                        configs=CONFIGS, reps=1, profile="mini", seed=3,
                        trace_dir=str(tmp_path), parallel=False)
        assert len(records) == 1
        names = sorted(p.name for p in tmp_path.iterdir())
        stem = f"lbm_buddy_{CONFIGS[0]}_rep0"
        assert any(n.startswith(stem) and n.endswith(".json") for n in names)
        assert any(n.endswith(".jsonl") for n in names)
        assert any(n.endswith(".csv") for n in names)

    def test_serial_matches_pooled_bit_identically(self):
        serial = sweep(parallel=True, max_workers=1, **KWARGS)
        pooled = sweep(parallel=True, max_workers=4, **KWARGS)
        assert serial == pooled


class TestSweepCaching:
    def test_second_pass_hits_cache_with_identical_records(self):
        store = MemoryStore()
        first = sweep(parallel=True, max_workers=2, cache=store, **KWARGS)
        assert store.stats()["puts"] == len(first) == 8
        second = sweep(parallel=True, max_workers=2, cache=store, **KWARGS)
        # Acceptance: >= 95% hits on the second pass, records identical.
        assert store.stats()["hits"] >= int(0.95 * len(first))
        assert second == first
        assert store.stats()["puts"] == 8  # nothing re-ran, nothing re-stored

    def test_cache_shared_across_serial_and_pooled_paths(self):
        store = MemoryStore()
        serial = sweep(parallel=False, cache=store, **KWARGS)
        pooled = sweep(parallel=True, max_workers=4, cache=store, **KWARGS)
        assert pooled == serial
        assert store.stats()["puts"] == 8

    def test_jsonl_cache_survives_into_a_new_sweep(self, tmp_path):
        path = str(tmp_path / "sweep_cache.jsonl")
        first = sweep(parallel=False, cache=path, **KWARGS)
        second = sweep(parallel=False, cache=path, **KWARGS)
        assert second == first


class TestServiceSweepTwicePattern:
    def test_demo_pattern_full_hit_rate(self):
        """The `python -m repro.service demo` contract, in-process."""
        specs = [
            JobSpec(bench=b, policy=p.value, config=CONFIGS[0], rep=r,
                    profile="mini", seed=3)
            for b in BENCHES for p in POLICIES for r in range(2)
        ]
        with ServiceClient(store=":memory:", shards=2,
                           executor="process") as client:
            first = client.run(specs)
            stats1 = client.stats()
            second = client.run(specs)
            stats2 = client.stats()
        hits = stats2["cache_hits"] - stats1["cache_hits"]
        assert hits / len(specs) >= 0.95
        assert second == first


class TestSanitizeThroughService:
    def test_sanitized_run_matches_unsanitized(self):
        """sanitize="cheap" rides the JobSpec into the worker and must
        not perturb the simulation (traced path equivalence)."""
        base = dict(benches=["lbm"], policies=[Policy.MEM_LLC],
                    configs=CONFIGS, reps=1, profile="mini", seed=3,
                    parallel=False)
        plain = sweep(sanitize="off", **base)
        sanitized = sweep(sanitize="cheap", **base)
        for a, b in zip(plain, sanitized):
            assert a == b

    def test_sanitize_levels_have_distinct_digests(self):
        """Cached sanitized and unsanitized runs never alias."""
        off = JobSpec(bench="lbm", profile="mini", sanitize="off")
        full = JobSpec(bench="lbm", profile="mini", sanitize="full")
        assert off.digest() != full.digest()


class TestSweepFaultTolerance:
    def test_sweep_result_order_matches_job_order(self):
        records = sweep(parallel=True, max_workers=4, **KWARGS)
        expected = [
            (b, p.label, c, r)
            for b in BENCHES for c in CONFIGS for p in POLICIES
            for r in range(2)
        ]
        got = [(r.bench, r.policy, r.config, r.rep) for r in records]
        assert got == expected

    def test_unknown_bench_fails_cleanly(self):
        from repro.service import JobFailed

        with pytest.raises(JobFailed):
            sweep(benches=["no-such-bench"], policies=[Policy.BUDDY],
                  configs=CONFIGS, reps=1, profile="mini", parallel=False)
