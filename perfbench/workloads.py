"""The benchmark's three workloads.

Each workload is a fixed piece of work a user of the reproduction
waits for, run serially in this process (no process pool, no fork):

``fig11_opteron``
    The paper's headline sweep: 6 benchmarks x {buddy, mem+llc} on
    ``16_threads_4_nodes``, scaled profile, one rep, one
    ``run_benchmark`` call per job.  Mostly batched replay.
``matrix_disagg``
    ``run_matrix`` on ``disagg_2n``: lbm+art x the 6 matrix policies,
    scale 0.05, 256 MiB, one rep, with the platform's fast==reference
    gate.  Every section replays through the scalar loop.
``tune_lbm``
    A seeded evolution search on lbm (mini profile, budget 24,
    population 8, full_reps 2) through an inline ``ServiceClient`` on a
    fresh SQLite store, then a same-seed warm rerun on that store.

A workload provides ``setup(seed, out_dir)`` (imports, presets, store;
returns a state dict), ``discard(state)``, ``run(state, probes)`` (the
timed work) and ``verify(state, result, probes, expected)``, which
returns ``(attempted, failed, info)``.  An operation is one simulation
job; it fails if it raised or its output failed a check.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import sys

CONFIG = "16_threads_4_nodes"

_SIM_MODULES = (
    "repro.experiments.runner", "repro.experiments.configs",
    "repro.alloc.policies", "repro.workloads.registry",
    "repro.workloads.base", "repro.util.rng", "repro.machine.presets",
)


def fresh_import(*names: str) -> dict:
    """Import ``names`` from scratch: every ``repro`` module is dropped
    from ``sys.modules`` first, so each set-up pays the import again."""
    for mod in [m for m in sys.modules if m == "repro" or m.startswith("repro.")]:
        del sys.modules[mod]
    return {name.rsplit(".", 1)[-1]: importlib.import_module(name)
            for name in names}


def metrics_digest(metrics) -> str:
    """sha256 of a RunMetrics' canonical JSON form."""
    blob = json.dumps(metrics.to_json(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _same(a: dict, b: dict) -> bool:
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def reference_run(m: dict, machine, config, policy, bench: str,
                  scale: float, seed: int):
    """Rep 0 of one job through the reference replay loop
    (``fast_path=False``), built exactly as ``run_benchmark`` builds it."""
    team, engine = m["runner"]._fresh_environment(
        config, policy, machine, age_seed=seed
    )
    engine.fast_path = False
    spec = m["registry"].get_workload(bench).scaled(scale)
    rng = m["rng"].RngStream(seed, bench, config.name)
    return engine.run(m["base"].build_spmd_program(spec, team, rng))


def check_digests(runs, labels, expected: list | None) -> tuple[int, list]:
    """Digest every run; count those differing from ``expected``.

    Returns ``(mismatches, [{"job": label, "digest": sha256}])``; a run
    missing from either side counts as a mismatch.
    """
    got = [{"job": label, "digest": metrics_digest(r)}
           for label, r in zip(labels, runs)]
    if expected is None:
        return 0, got
    bad = sum(1 for i, g in enumerate(got)
              if i >= len(expected) or expected[i] != g)
    return bad + max(0, len(expected) - len(got)), got


# --------------------------------------------------------------- fig11
class Fig11Opteron:
    name = "fig11_opteron"
    profile = "scaled"

    def setup(self, seed: int, out_dir) -> dict:
        m = fresh_import(*_SIM_MODULES)
        pol = m["policies"].Policy
        return {
            "m": m, "seed": seed,
            "machine": m["runner"].profile_machine(self.profile),
            "jobs": [(b, p) for b in m["registry"].BENCH_ORDER
                     for p in (pol.BUDDY, pol.MEM_LLC)],
        }

    def discard(self, state: dict) -> None:
        pass

    def run(self, state: dict, probes) -> dict:
        run_benchmark = state["m"]["runner"].run_benchmark
        tracer = probes.tracer
        payloads = []
        for bench, policy in state["jobs"]:
            if tracer is not None:
                tracer.job = f"{bench}/{policy.label}"
            record = run_benchmark(bench, policy, CONFIG, rep=0,
                                   seed=state["seed"], profile=self.profile)
            payloads.append(record.to_json())
        return {"payloads": payloads}

    def verify(self, state: dict, result: dict, probes, expected) -> tuple:
        runs = probes.runs
        labels = [f"{b}/{p.label}" for b, p in state["jobs"]]
        bad, got = check_digests(runs, labels, expected)
        failed = bad if expected is not None else abs(len(labels) - len(runs))
        if expected is None:
            # Off the committed seed: one job must replay bit-identically
            # through the reference loop.
            m = state["m"]
            i = labels.index("art/buddy")
            bench, policy = state["jobs"][i]
            ref = reference_run(
                m, state["machine"], m["configs"].CONFIGS[CONFIG], policy,
                bench, m["runner"].profile_scale(self.profile), state["seed"],
            )
            if not _same(ref.to_json(), runs[i].to_json()):
                failed += 1
        return len(labels), failed, {"digests": got}


# ------------------------------------------------------------- matrix
class MatrixDisagg:
    name = "matrix_disagg"
    platform = "disagg_2n"
    benches = ("lbm", "art")

    def setup(self, seed: int, out_dir) -> dict:
        m = fresh_import(*_SIM_MODULES, "repro.experiments.matrix",
                         "repro.util.units")
        return {
            "m": m, "seed": seed,
            "machine": m["presets"].platform(self.platform,
                                             256 * m["units"].MIB),
        }

    def discard(self, state: dict) -> None:
        pass

    def run(self, state: dict, probes) -> dict:
        matrix = state["m"]["matrix"]
        seed = state["seed"]
        tracer = probes.tracer
        run_benchmark = matrix.run_benchmark

        def seeded(bench, pol, config, rep=0, **kwargs):
            if tracer is not None:
                tracer.job = f"{bench}/{pol.label}"
            return run_benchmark(bench, pol, config, rep=rep, seed=seed,
                                 **kwargs)

        matrix.run_benchmark = seeded
        try:
            cells = matrix.run_matrix(
                platforms=(self.platform,), benches=self.benches, reps=1,
                memory_bytes=256 * state["m"]["units"].MIB, scale=0.05,
            )
        finally:
            matrix.run_benchmark = run_benchmark
        return {"cells": cells}

    def verify(self, state: dict, result: dict, probes, expected) -> tuple:
        runs = probes.runs
        pols = state["m"]["matrix"].MATRIX_POLICIES
        labels = (["equivalence/fast", "equivalence/reference"]
                  + [f"{b}/{p.label}" for b in self.benches for p in pols])
        bad, got = check_digests(runs, labels, expected)
        failed = bad if expected is not None else abs(len(labels) - len(runs))
        if expected is None:
            m = state["m"]
            machine = state["machine"]
            ref = reference_run(
                m, machine, m["matrix"].headline_config(machine),
                m["policies"].Policy.BUDDY, self.benches[0], 0.05,
                state["seed"],
            )
            if not _same(ref.to_json(), runs[2].to_json()):
                failed += 1
        return len(labels), failed, {"digests": got}


# --------------------------------------------------------------- tune
class TuneLbm:
    name = "tune_lbm"
    profile = "mini"

    def setup(self, seed: int, out_dir) -> dict:
        m = fresh_import(
            *_SIM_MODULES, "repro.search.drivers", "repro.search.space",
            "repro.search.report", "repro.service.client",
            "repro.service.store", "repro.service.jobs",
            "repro.service.worker",
        )
        path = os.path.join(out_dir, f"tune-{os.getpid()}.sqlite")
        if os.path.exists(path):
            os.remove(path)
        settings = m["drivers"].SearchSettings(
            bench="lbm", config=CONFIG, profile=self.profile, seed=seed,
            budget=24, full_reps=2, population=8,
        )
        return {"m": m, "seed": seed, "path": path, "settings": settings,
                "store": m["store"].open_store(path)}

    def discard(self, state: dict) -> None:
        state["store"].close()
        os.remove(state["path"])

    def _search(self, state: dict, store, probes):
        m = state["m"]
        settings = state["settings"]
        tracer = probes.tracer
        runner = m["worker"].execute_jobspec
        if tracer is not None:
            runner = tracer.wrap(runner, "service.attempt",
                                 job_of=lambda spec: spec.digest()[:12])
            store.get = tracer.wrap(store.get, "service.store_get",
                                    job_of=lambda digest: digest[:12])
            store.put = tracer.wrap(store.put, "service.store_put",
                                    job_of=lambda digest, *a: digest[:12])
        drivers = m["drivers"]
        with m["client"].ServiceClient(store=store, shards=1,
                                       executor="inline",
                                       runner=runner) as client:
            evaluator = drivers.ServiceEvaluator(client, settings)
            space = m["space"].SearchSpace(settings.config, settings.profile)
            if tracer is None:
                outcome = drivers.EvolutionDriver(space, evaluator,
                                                  settings).run()
            else:
                with tracer.span("search.driver", anchor=True):
                    outcome = drivers.EvolutionDriver(space, evaluator,
                                                      settings).run()
            outcome.stats["submitted"] = client.stats()["submitted"]
        log = json.dumps(m["report"].search_log_json(outcome), indent=1,
                         sort_keys=True)
        return outcome, log

    def run(self, state: dict, probes) -> dict:
        tracer = probes.tracer
        open_store = state["m"]["store"].open_store
        cold, cold_log = self._search(state, state["store"], probes)
        state["store"].close()
        if tracer is None:
            state["store"] = open_store(state["path"])
        else:
            with tracer.span("service.store_get"):
                state["store"] = open_store(state["path"])
        warm, warm_log = self._search(state, state["store"], probes)
        state["store"].close()
        return {"cold": cold, "warm": warm, "cold_log": cold_log,
                "warm_log": warm_log}

    def verify(self, state: dict, result: dict, probes, expected) -> tuple:
        """Every submitted job is an operation.  A genome whose colors
        cannot hold the working set fails with a typed error that the
        search records in its log; the warm rerun must reproduce that
        too, so it is an output, not a failed operation."""
        cold, warm = result["cold"], result["warm"]
        failed = 0
        if result["warm_log"] != result["cold_log"] or warm.stats["jobs_executed"]:
            failed += warm.stats["submitted"]
        log_sha = hashlib.sha256(result["cold_log"].encode()).hexdigest()
        digests = [{"job": "search_log", "digest": log_sha}]
        if expected is not None:
            if expected != digests:
                failed += cold.stats["submitted"]
        else:
            failed += self._reference_check(state)
        os.remove(state["path"])
        return cold.stats["submitted"] + warm.stats["submitted"], failed, {
            "digests": digests,
            "jobs_executed": cold.stats["jobs_executed"] + warm.stats["jobs_executed"],
            "jobs_cached": cold.stats["jobs_cached"] + warm.stats["jobs_cached"],
        }

    def _reference_check(self, state: dict) -> int:
        """The mem+llc baseline's rep 0, replayed through the reference
        loop, must match the record the search stored for it."""
        m = state["m"]
        settings = state["settings"]
        pol = m["policies"].Policy.MEM_LLC
        spec = m["jobs"].JobSpec(
            kind="bench", bench=settings.bench, policy=pol.value,
            config=settings.config, rep=0, profile=settings.profile,
            seed=settings.seed, sanitize=settings.sanitize,
        )
        store = m["store"].open_store(state["path"])
        try:
            stored = store.get(spec.digest())
        finally:
            store.close()
        runner = m["runner"]
        config = m["configs"].CONFIGS[settings.config]
        metrics = reference_run(
            m, runner.profile_machine(settings.profile), config, pol,
            settings.bench, runner.profile_scale(settings.profile),
            settings.seed,
        )
        record = runner._record_from_metrics(
            metrics, settings.bench, pol, config.name, 0
        )
        return 0 if stored is not None and _same(stored, record.to_json()) else 1


WORKLOADS = {w.name: w for w in (Fig11Opteron(), MatrixDisagg(), TuneLbm())}
