"""Worker entry points: execute one JobSpec in this or a child process.

:func:`execute_jobspec` is the default runner the service invokes —
it rebuilds the full simulated machine from the spec's seeds (exactly
as :func:`repro.experiments.runner.run_benchmark` would) and returns the
``RunRecord.to_json()`` dict, which is the one canonical result shape
on every path (inline, child process, cache hit).

:func:`child_main` is the ``multiprocessing.Process`` target for the
isolated executor: it ships the outcome back over a pipe and lets any
crash (``os._exit``, segfault, OOM kill) surface as a silent pipe EOF
the service converts into a retryable *crash* outcome.
"""

from __future__ import annotations

import os
import time
import traceback

from repro.alloc.custom import resolve_policy
from repro.experiments.runner import run_benchmark, run_synthetic
from repro.faultline import hooks as _fault_hooks
from repro.faultline.faults import WorkerKillFault
from repro.faultline.plan import DEFAULT_HANG_S, DEFAULT_SLOW_START_S
from repro.obs import NULL_OBSERVER, BaseObserver, Observer, export_run
from repro.obs import metrics as obs_metrics
from repro.obs.metrics import MetricsRegistry
from repro.service.jobs import JobSpec


def apply_worker_faults(spec: JobSpec, in_child: bool) -> None:
    """Faultline gate at worker start (no-op unless a plan is armed).

    * ``worker.slow_start`` — sleep before running (a straggler).
    * ``worker.kill`` — die before reporting: ``os._exit`` in a child
      (parent sees pipe EOF -> crash) or a typed
      :class:`WorkerKillFault` inline (booked as crash by the slot).
    * ``worker.hang`` — sleep far past any deadline; only honoured in a
      child, where the parent's ``timeout_s`` supervision can reap it
      (an inline hang would stall the slot thread itself).

    Scopes are digest-prefixed, so a plan targets specific jobs
    deterministically on both sides of the fork boundary.
    """
    scope = spec.digest()[:12]
    rule = _fault_hooks.should_fire("worker.slow_start", scope)
    if rule is not None:
        time.sleep(rule.arg if rule.arg is not None else DEFAULT_SLOW_START_S)
    rule = _fault_hooks.should_fire("worker.kill", scope)
    if rule is not None:
        if in_child:
            os._exit(87)  # die silently: parent books a crash via pipe EOF
        raise WorkerKillFault("worker.kill", scope)
    if in_child:
        rule = _fault_hooks.should_fire("worker.hang", scope)
        if rule is not None:
            time.sleep(rule.arg if rule.arg is not None else DEFAULT_HANG_S)


def execute_jobspec(spec: JobSpec) -> dict:
    """Run one evaluation described by ``spec``; returns record JSON.

    The ``sanitize`` level rides the spec into the worker (in the slot
    thread, or pickled to a child process) and is handed to the run
    functions unchanged, so service workers arm the sanitizer exactly
    like direct calls do.
    """
    policy = resolve_policy(spec.policy)
    observer: BaseObserver = Observer() if spec.trace_dir else NULL_OBSERVER
    if spec.kind == "synthetic":
        record = run_synthetic(
            policy, spec.config, rep=spec.rep, profile=spec.profile,
            observer=observer, sanitize=spec.sanitize,
        )
    else:
        record = run_benchmark(
            spec.bench, policy, spec.config, rep=spec.rep, seed=spec.seed,
            profile=spec.profile, observer=observer, sanitize=spec.sanitize,
        )
    if spec.trace_dir:
        stem = f"{record.bench}_{record.policy}_{spec.config}_rep{spec.rep}"
        export_run(observer, spec.trace_dir, stem)
    return record.to_json()


def child_main(conn, runner, spec: JobSpec, metrics: bool) -> None:
    """Child-process body: run ``runner(spec)``, send the outcome, exit.

    Sends ``("ok", result, snapshot)`` or
    ``("err", "Type: msg", traceback, snapshot)``.  If the child dies
    before sending anything the parent sees EOF and books a crash.

    With ``metrics`` the child installs a fresh ambient
    :class:`~repro.obs.metrics.MetricsRegistry` so engine/store
    instrumentation records locally, and ``snapshot`` is that
    registry's final snapshot, which the parent merges into its own.
    Without it ``snapshot`` is None and nothing is recorded.
    """
    registry = MetricsRegistry() if metrics else None
    if registry is not None:
        obs_metrics.install(registry)

    def _snapshot() -> dict | None:
        return None if registry is None else registry.snapshot()

    try:
        apply_worker_faults(spec, in_child=True)
        result = runner(spec)
        conn.send(("ok", result, _snapshot()))
    except BaseException as exc:  # noqa: BLE001 - must report, not die silent
        conn.send(("err", f"{type(exc).__name__}: {exc}",
                   traceback.format_exc(), _snapshot()))
    finally:
        conn.close()
