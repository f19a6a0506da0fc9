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
from repro.service import JobSpec, ResultStore, ServiceClient
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
        records = sweep(max_workers=1, **KWARGS)
        assert len(records) == 8
        # A single-job sweep takes the same inline path.
        single = sweep(benches=["lbm"], policies=[Policy.BUDDY],
                       configs=CONFIGS, reps=1, profile="mini", seed=3)
        assert len(single) == 1

    def test_traced_serial_sweep_exports_one_bundle_per_run(self, tmp_path):
        """``trace_dir`` (the CLI's ``--trace-out``): each job records its
        own observer and exports one Perfetto trace file."""
        records = sweep(benches=["lbm"], policies=[Policy.BUDDY],
                        configs=CONFIGS, reps=1, profile="mini", seed=3,
                        trace_dir=str(tmp_path), max_workers=1)
        assert len(records) == 1
        names = [p.name for p in tmp_path.iterdir()]
        assert names == [f"lbm_buddy_{CONFIGS[0]}_rep0.trace.json"]

    def test_empty_grid_returns_no_records(self):
        """An empty grid runs nothing on any host, whatever the worker
        count asked for."""
        for workers in (None, 1, 4):
            assert sweep([], [Policy.BUDDY], CONFIGS, reps=1,
                         max_workers=workers) == []

    def test_serial_matches_pooled_bit_identically(self):
        serial = sweep(max_workers=1, **KWARGS)
        pooled = sweep(max_workers=4, **KWARGS)
        assert serial == pooled


class TestSweepCaching:
    def test_second_pass_hits_cache_with_identical_records(self):
        store = ResultStore()
        first = sweep(max_workers=2, cache=store, **KWARGS)
        assert store.stats()["puts"] == len(first) == 8
        second = sweep(max_workers=2, cache=store, **KWARGS)
        # Acceptance: >= 95% hits on the second pass, records identical.
        assert store.stats()["hits"] >= int(0.95 * len(first))
        assert second == first
        assert store.stats()["puts"] == 8  # nothing re-ran, nothing re-stored

    def test_cache_shared_across_serial_and_pooled_paths(self):
        store = ResultStore()
        serial = sweep(max_workers=1, cache=store, **KWARGS)
        pooled = sweep(max_workers=4, cache=store, **KWARGS)
        assert pooled == serial
        assert store.stats()["puts"] == 8

    def test_traced_sweep_reruns_every_job_over_a_warm_store(self, tmp_path):
        """A traced run's value is its exported files, so a traced sweep
        never reads the store: every job re-runs and writes its trace."""
        grid = dict(benches=["lbm"], policies=POLICIES, configs=CONFIGS,
                    reps=1, profile="mini", seed=3, max_workers=1)
        store = ResultStore()
        warm = sweep(cache=store, **grid)
        lookups = store.stats()["hits"] + store.stats()["misses"]
        traced = sweep(cache=store, trace_dir=str(tmp_path), **grid)
        assert traced == warm
        assert store.stats()["hits"] + store.stats()["misses"] == lookups
        traces = list(tmp_path.iterdir())
        assert all(p.name.endswith(".trace.json") for p in traces)
        assert len(traces) == len(warm) == 2

    def test_sqlite_cache_survives_into_a_new_sweep(self, tmp_path):
        path = str(tmp_path / "sweep_cache.sqlite")
        first = sweep(max_workers=1, cache=path, **KWARGS)
        second = sweep(max_workers=1, cache=path, **KWARGS)
        assert second == first

    def test_sqlite_cache_given_as_a_path(self, tmp_path):
        """``cache`` takes a pathlib.Path as well as a str."""
        path = tmp_path / "c.sqlite"
        first = sweep(max_workers=1, cache=path, **KWARGS)
        second = sweep(max_workers=1, cache=path, **KWARGS)
        assert second == first
        assert path.exists()


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
                    max_workers=1)
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
        records = sweep(max_workers=4, **KWARGS)
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
                  configs=CONFIGS, reps=1, profile="mini", max_workers=1)
