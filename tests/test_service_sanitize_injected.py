"""Injected corruption must surface through the service path (satellite).

The corrupting runner arms the sanitizer at the level carried by the
JobSpec (proving ``--sanitize`` survives the spec round trip into a
worker), injects one cache corruption mid-job, and the resulting
SanitizeViolation must come back as a structured job failure — through
a real child process for the process executor — without damaging the
service.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.alloc.policies import Policy
from repro.core.session import ColoredTeam
from repro.core.tintmalloc import TintMalloc
from repro.kernel.kernel import Kernel
from repro.machine.presets import tiny_machine
from repro.sanitize import SanitizerObserver
from repro.service import JobFailed, JobSpec, ServiceClient
from repro.sim.barrier import Program, Section
from repro.sim.engine import Engine, MemorySystem
from repro.sim.trace import Trace
from repro.util.units import KIB, MIB


def corrupting_sanitized_runner(spec: JobSpec) -> dict:
    """Run a tiny sanitized job and corrupt the LLC between programs.

    The sanitizer level comes from the spec — exactly the field that
    must survive serialization into the worker.
    """
    assert spec.sanitize != "off", "spec lost its sanitize level in transit"
    observer = SanitizerObserver.for_level(spec.sanitize, check_every=64)
    machine = tiny_machine(8 * MIB)
    kernel = Kernel(machine, aged=True, age_seed=1, observer=observer)
    tm = TintMalloc(kernel=kernel)
    team = ColoredTeam.create(tm, [0], Policy.MEM_LLC)
    memory = MemorySystem.for_machine(machine, observer=observer)
    engine = Engine(team, memory, observer=observer)
    observer.sanitizer.attach_engine(engine)

    def run_pass(label: str) -> None:
        va = team.handles[0].malloc(32 * KIB, label=label)
        n = 1024
        vaddrs = va + (np.arange(n, dtype=np.int64) % 512) * 64
        trace = Trace(vaddrs=vaddrs, writes=np.ones(n, dtype=bool),
                      think_ns=1.0, label=label)
        engine.run(Program(
            sections=[Section(kind="parallel", traces={0: trace},
                              label=label)],
            nthreads=1, name=label,
        ))

    run_pass("healthy")
    llc = memory.hierarchy.llc
    idx, entries = next((i, s) for i, s in enumerate(llc._sets) if len(s))
    line, dirty = next(iter(entries.items()))
    del entries[line]
    llc._sets[(idx + 1) % llc.num_sets][line] = dirty  # misfiled line
    run_pass("after-corruption")  # sanitizer must abort this
    return {"should": "never get here"}


@pytest.mark.parametrize("executor", ["inline", "process"])
def test_injected_corruption_fails_the_job(executor):
    spec = JobSpec(bench="lbm", profile="mini", sanitize="full",
                   max_retries=1)
    with ServiceClient(executor=executor,
                       runner=corrupting_sanitized_runner) as client:
        handle = client.submit(spec)
        with pytest.raises(JobFailed) as exc:
            handle.result(60)
        # The violation is attributed, not swallowed: layer + invariant
        # travel back in the error message even across the process
        # boundary.
        assert "SanitizeViolation" in str(exc.value)
        assert "cache" in str(exc.value)
        # Deterministic corruption fails the same way every time, so
        # the error is final: one attempt despite the retry budget.
        assert [a["outcome"] for a in exc.value.attempts] == ["err"]
        # The service itself is unharmed: a healthy job still runs.
        stats = client.stats()
    assert stats["failed"] == 1
    assert stats["crashes"] == 0  # a violation is an error, not a crash


def test_healthy_sanitized_job_completes(tmp_path):
    """Same runner family, no corruption: the sanitize level arms real
    checkers inside a real worker process and the job completes."""

    spec = JobSpec(bench="lbm", policy="mem+llc",
                   config="4_threads_4_nodes", profile="mini",
                   sanitize="cheap", seed=3)
    with ServiceClient(executor="process") as client:
        record = client.submit(spec).result(120)
    assert record["bench"] == "lbm"
    assert record["faults"] > 0
