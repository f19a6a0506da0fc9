"""The job service: a result cache over one FIFO and N executor slots.

One :class:`ServiceClient` instance is one service, and the thin-waist
API the experiments layer (``sweep()``), the policy search, the chaos
campaign and the CLI all share.  It opens (or adopts) a result store,
runs the jobs that store cannot answer, and converts record-JSON
results back into :class:`~repro.experiments.runner.RunRecord` objects
for callers.

* **Caching + dedup.**  Submission first consults the content-addressed
  :class:`~repro.service.store.ResultStore` (hit -> completed handle,
  no work), then the in-flight table (identical digest already queued
  or running -> the same handle is returned and the work happens once).
  A store error is booked in ``store_errors`` and treated as a miss, so
  a failing backing medium costs cache effectiveness, never a job.
* **Twin reuse.**  A store miss whose *twin* has completed under this
  client — a job with the same
  :meth:`~repro.service.jobs.JobSpec.evaluation_digest`, i.e. the same
  simulation under another policy label — is served from the twin's
  stored record, relabeled with the spec's policy and written through
  under the spec's own digest.  It is booked as a cache hit.
* **One FIFO, N slots.**  Every other job joins one queue; ``shards``
  worker threads (the executor *slots*) take jobs in submission order.
  Total concurrency = shards.
* **Executors.**  ``"process"`` runs every attempt in a fresh child
  process (fork when available): a worker crash kills only that child,
  never the pool, and a timeout is enforced by terminating it.
  ``"inline"`` runs the job in the slot thread — the serial fast path
  `sweep()` uses for single-worker hosts, and what tests use to inject
  failures deterministically.
* **Failure semantics.**  Each attempt ends ok / err / crash / timeout.
  A crash or a timeout is retried, up to ``max_retries`` extra attempts;
  an ``err`` is final, because a deterministic simulation that raised
  raises again.  A job that did not complete fails with
  :class:`JobFailed`, which carries its full attempt history.
  :mod:`repro.faultline` injects deterministic attempt crashes at the
  ``sched.attempt.kill`` hook point.

Queue waits, attempt latencies, retries and job outcomes are recorded in
the labeled metrics registry (``sched.*``); worker children record into
their own registry, whose snapshot merges here when the attempt reports.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import threading
import time
from collections import deque

from repro.experiments.runner import RunRecord
from repro.faultline import hooks as _fault_hooks
from repro.faultline.faults import WorkerKillFault
from repro.obs import metrics as obs_metrics
from repro.obs.metrics import MetricsRegistry
from repro.service.jobs import JobSpec, JobStatus
from repro.service.store import ResultStore, open_store
from repro.service.worker import apply_worker_faults, child_main, execute_jobspec

#: Child-process supervision cadence, seconds (timeout latency).
POLL_INTERVAL_S = 0.02

#: attempt outcome -> the counter a non-ok outcome books.
_FAILURE_COUNTERS = {"err": "errors", "crash": "crashes", "timeout": "timeouts"}


class ServiceError(Exception):
    """Base class for service-layer errors."""


class JobFailed(ServiceError):
    """Raised by ``JobHandle.result()`` when a job did not complete.

    ``attempts`` holds the per-attempt outcome dicts (outcome, error,
    started/ended wall-clock), newest last.
    """

    def __init__(self, message: str, attempts: list[dict]) -> None:
        super().__init__(message)
        self.attempts = attempts


class _Job:
    """Internal mutable job state (lock discipline: ServiceClient._cv)."""

    __slots__ = ("spec", "digest", "status", "attempts", "result", "error",
                 "from_cache", "done", "enqueued_ns")

    def __init__(self, spec: JobSpec, digest: str) -> None:
        self.spec = spec
        self.digest = digest
        self.status = JobStatus.QUEUED
        self.attempts: list[dict] = []
        self.result: dict | None = None
        self.error: str | None = None
        self.from_cache = False
        self.done = threading.Event()
        self.enqueued_ns = 0  # monotonic ns at submit (queue-wait metric)


class JobHandle:
    """Caller-facing view of one submitted job (future-like)."""

    def __init__(self, job: _Job) -> None:
        self._job = job

    @property
    def digest(self) -> str:
        """The job's content digest (the cache key)."""
        return self._job.digest

    @property
    def status(self) -> JobStatus:
        """Current lifecycle state."""
        return self._job.status

    @property
    def from_cache(self) -> bool:
        """Whether the result came from the store without running."""
        return self._job.from_cache

    @property
    def attempts(self) -> list[dict]:
        """Per-attempt outcome history (copies are cheap; don't mutate)."""
        return list(self._job.attempts)

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the job is done; True if it finished in time."""
        return self._job.done.wait(timeout)

    def result(self, timeout: float | None = None) -> dict:
        """The record-JSON result; raises :class:`JobFailed` or on timeout."""
        if not self._job.done.wait(timeout):
            raise TimeoutError(
                f"job {self._job.spec.label} not done after {timeout}s"
            )
        if self._job.status is JobStatus.COMPLETED:
            assert self._job.result is not None
            return self._job.result
        raise JobFailed(
            f"job {self._job.spec.label} failed: {self._job.error}",
            list(self._job.attempts),
        )


class ServiceClient:
    """Submit simulation jobs and gather typed results.

    Args:
        store: ``None`` (no caching: every submit runs), a path (str or
            path-like, ``.sqlite``/``.sqlite3``/``.db`` or
            ``":memory:"``, opened via
            :func:`~repro.service.store.open_store` and closed with this
            client), or an already-open :class:`ResultStore` (shared
            across clients; not closed by this one).
        shards: executor slots (worker threads) = maximum concurrent
            jobs.
        executor: ``"process"`` (isolated child per attempt) or
            ``"inline"`` (run in the slot thread).
        runner: callable ``(JobSpec) -> dict`` executed per attempt;
            defaults to the real simulator worker.  Tests substitute
            fault-injecting runners here.
        metrics: labeled :class:`~repro.obs.metrics.MetricsRegistry`
            for queue-wait/attempt-latency histograms, retry counters
            and queue gauges; defaults to the process-ambient registry
            (None when metrics are off).  Worker children record into a
            fresh registry and their snapshots merge here when their
            attempt reports.
    """

    def __init__(
        self,
        store: "str | os.PathLike | ResultStore | None" = None,
        shards: int = 1,
        executor: str = "process",
        runner=execute_jobspec,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if executor not in ("process", "inline"):
            raise ValueError(f"unknown executor {executor!r}")
        self._owns_store = not isinstance(store, ResultStore)
        self.store = None if store is None else open_store(store)
        self.shards = shards
        self.executor = executor
        self.runner = runner
        self.metrics = metrics if metrics is not None else obs_metrics.active()
        self._mp = mp.get_context(
            "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        )

        self._cv = threading.Condition()
        self._queue: deque[_Job] = deque()
        self._inflight: dict[str, _Job] = {}
        self._running = 0
        self._shutdown = False
        #: evaluation digest -> digest of a completed job (twin reuse).
        self._twins: dict[str, str] = {}

        # Counters (read under _cv or via stats()).
        self.counters = {
            "submitted": 0, "cache_hits": 0, "cache_misses": 0,
            "dedup_hits": 0, "completed": 0, "failed": 0,
            "retries": 0, "timeouts": 0, "crashes": 0, "errors": 0,
            "store_errors": 0,
        }

        self._threads = [
            threading.Thread(
                target=self._worker_loop, args=(i,),
                name=f"repro-service-slot-{i}", daemon=True,
            )
            for i in range(shards)
        ]
        for t in self._threads:
            t.start()

    # ---------------------------------------------------------------- store
    def _store_get(self, digest: str) -> dict | None:
        """Guarded store lookup: an error is a counted miss, never a failure."""
        try:
            return self.store.get(digest)
        except Exception:  # noqa: BLE001 - any backend error is a miss
            self._count("store_errors")
            return None

    def _store_put(self, digest: str, spec: dict, record: dict) -> None:
        """Guarded store write: an error is counted and the record not kept."""
        try:
            self.store.put(digest, spec, record)
        except Exception:  # noqa: BLE001 - any backend error is absorbed
            self._count("store_errors")

    def _twin_get(self, spec: JobSpec, digest: str) -> dict | None:
        """The stored record of a completed twin of ``spec``, relabeled.

        Written through under ``digest``, so later lookups of this spec
        (a warm rerun, another client on the same store) hit directly.
        None when no twin completed here or its record cannot be read;
        also when the twin is ``spec`` itself, whose entry the caller's
        own lookup just missed.
        """
        twin = self._twins.get(spec.evaluation_digest())
        if twin is None or twin == digest:
            return None
        record = self._store_get(twin)
        if record is None:
            return None
        record = {**record, "policy": spec.policy_label}
        self._store_put(digest, spec.to_json(), record)
        return record

    def _count(self, name: str) -> None:
        with self._cv:
            self.counters[name] += 1

    # --------------------------------------------------------------- submit
    def submit(self, spec: JobSpec) -> JobHandle:
        """Submit one job; returns immediately with a handle.

        Resolution order: result-store hit, or a completed twin's stored
        record -> completed handle; identical digest already in flight
        -> that job's handle (``force_run`` specs skip all three).
        Otherwise the job joins the back of the queue.
        """
        digest = spec.digest()
        submitted_ns = time.monotonic_ns()
        with self._cv:
            if self._shutdown:
                raise ServiceError("service is shut down")
            self.counters["submitted"] += 1
            if self.metrics is not None:
                self.metrics.counter("sched.submitted").inc()
            if not spec.force_run:
                if self.store is not None:
                    cached = self._store_get(digest)
                    if cached is None:
                        cached = self._twin_get(spec, digest)
                    if cached is not None:
                        self.counters["cache_hits"] += 1
                        job = _Job(spec, digest)
                        job.status = JobStatus.COMPLETED
                        job.result = cached
                        job.from_cache = True
                        job.done.set()
                        if self.metrics is not None:
                            self.metrics.counter(
                                "sched.jobs", outcome="cache_hit"
                            ).inc()
                        return JobHandle(job)
                    self.counters["cache_misses"] += 1
                existing = self._inflight.get(digest)
                if existing is not None:
                    self.counters["dedup_hits"] += 1
                    if self.metrics is not None:
                        self.metrics.counter(
                            "sched.jobs", outcome="dedup"
                        ).inc()
                    return JobHandle(existing)
            job = _Job(spec, digest)
            job.enqueued_ns = submitted_ns
            if not spec.force_run:
                self._inflight[digest] = job
            self._queue.append(job)
            if self.metrics is not None:
                self.metrics.gauge("sched.queue_depth").set(len(self._queue))
            self._cv.notify_all()
        return JobHandle(job)

    def submit_many(self, specs: list[JobSpec]) -> list[JobHandle]:
        """Submit specs in order; returns handles in the same order."""
        return [self.submit(spec) for spec in specs]

    # ----------------------------------------------------------------- gather
    def gather(
        self, handles: list[JobHandle], timeout: float | None = None
    ) -> list[RunRecord]:
        """Wait for all handles; typed records in submission order.

        Raises the first failure encountered (handle order), like the
        process-pool ``map`` it replaced.
        """
        return [
            RunRecord.from_json(handle.result(timeout)) for handle in handles
        ]

    def run(
        self, specs: list[JobSpec], timeout: float | None = None
    ) -> list[RunRecord]:
        """Submit + gather in one call."""
        return self.gather(self.submit_many(specs), timeout=timeout)

    # ---------------------------------------------------------- worker loop
    def _worker_loop(self, slot: int) -> None:
        while True:
            with self._cv:
                while not self._queue and not self._shutdown:
                    self._cv.wait()
                if not self._queue:
                    return
                job = self._queue.popleft()
                job.status = JobStatus.RUNNING
                self._running += 1
                if self.metrics is not None:
                    self.metrics.gauge("sched.queue_depth").set(len(self._queue))
                    self.metrics.gauge("sched.running").set(self._running)
                    self.metrics.histogram(
                        "sched.queue_wait_s", shard=slot
                    ).observe((time.monotonic_ns() - job.enqueued_ns) / 1e9)
            try:
                self._run_job(job, slot)
            finally:
                with self._cv:
                    self._running -= 1
                    if self.metrics is not None:
                        self.metrics.gauge("sched.running").set(self._running)
                    self._cv.notify_all()

    def _run_job(self, job: _Job, slot: int) -> None:
        """Attempt ``job`` until it succeeds, errs, or runs out of retries."""
        spec = job.spec
        for attempt in range(spec.max_retries + 1):
            started = time.time()
            attempt_begin = time.monotonic_ns()
            kind, payload = self._execute_attempt(job, attempt)
            if self.metrics is not None:
                self.metrics.histogram(
                    "sched.attempt_s", shard=slot, outcome=kind
                ).observe((time.monotonic_ns() - attempt_begin) / 1e9)
            job.attempts.append({
                "attempt": attempt,
                "outcome": kind,
                "error": None if kind == "ok" else payload,
                "started": started,
                "ended": time.time(),
            })
            if kind == "ok":
                if self.store is not None:
                    self._store_put(job.digest, spec.to_json(), payload)
                    with self._cv:
                        self._twins[spec.evaluation_digest()] = job.digest
                job.result = payload
                self._finalize(job, JobStatus.COMPLETED)
                return
            self._count(_FAILURE_COUNTERS[kind])
            job.error = payload
            if kind == "err" or attempt == spec.max_retries:
                break
            self._count("retries")
            if self.metrics is not None:
                self.metrics.counter("sched.retries", reason=kind).inc()
        self._finalize(job, JobStatus.FAILED)

    def _execute_attempt(self, job: _Job, attempt: int) -> tuple:
        """One attempt: ("ok", result) | ("err"|"crash"|"timeout", msg)."""
        rule = _fault_hooks.should_fire(
            "sched.attempt.kill", f"{job.digest[:12]}#a{attempt}"
        )
        if rule is not None:
            # Parent-side kill injection: the attempt is booked exactly
            # like a child that died before reporting, per-attempt
            # deterministic (the scope encodes the attempt number).
            return ("crash",
                    "faultline: injected worker kill "
                    f"(attempt {attempt}, digest {job.digest[:12]})")
        if self.executor == "process":
            return self._execute_in_process(job)
        try:
            apply_worker_faults(job.spec, in_child=False)
            return ("ok", self.runner(job.spec))
        except WorkerKillFault as exc:
            return ("crash", f"faultline: {exc}")
        except Exception as exc:  # noqa: BLE001 - booked as attempt outcome
            return ("err", f"{type(exc).__name__}: {exc}")

    def _execute_in_process(self, job: _Job) -> tuple:
        """Run one attempt in a fresh child process and supervise it.

        The child reports once over a pipe; a timeout is enforced by
        terminating it, and a child that exits without reporting is
        booked as a crash.
        """
        spec = job.spec
        recv, send = self._mp.Pipe(duplex=False)
        proc = self._mp.Process(
            target=child_main,
            args=(send, self.runner, spec, self.metrics is not None),
            daemon=True,
        )
        proc.start()
        send.close()
        deadline = (
            None if spec.timeout_s is None
            else time.monotonic() + spec.timeout_s
        )
        try:
            while True:
                if recv.poll(POLL_INTERVAL_S):
                    try:
                        msg = recv.recv()
                    except EOFError:
                        break
                    proc.join()
                    if self.metrics is not None and msg[-1]:
                        self.metrics.merge(msg[-1])
                    return (msg[0], msg[1])
                if deadline is not None and time.monotonic() >= deadline:
                    return ("timeout", f"attempt exceeded {spec.timeout_s}s")
                if not proc.is_alive() and not recv.poll():
                    break
            proc.join()
            return ("crash",
                    f"worker exited with code {proc.exitcode} "
                    "before reporting a result")
        finally:
            if proc.is_alive():
                proc.terminate()
            proc.join()
            recv.close()

    def _finalize(self, job: _Job, status: JobStatus) -> None:
        with self._cv:
            job.status = status
            if self._inflight.get(job.digest) is job:
                del self._inflight[job.digest]
            key = "completed" if status is JobStatus.COMPLETED else "failed"
            self.counters[key] += 1
            if self.metrics is not None:
                self.metrics.counter("sched.jobs", outcome=key).inc()
            job.done.set()
            self._cv.notify_all()

    # ------------------------------------------------------------------ admin
    def drain(self, timeout: float | None = None) -> bool:
        """Block until no job is queued or running; True if drained."""
        with self._cv:
            return self._cv.wait_for(
                lambda: not self._queue and not self._running, timeout
            )

    def stats(self) -> dict:
        """Snapshot of counters plus queue/running depth and store stats."""
        with self._cv:
            out = dict(self.counters)
            out["queue_depth"] = len(self._queue)
            out["running"] = self._running
            out["shards"] = self.shards
            out["executor"] = self.executor
        if self.store is not None:
            out["store"] = self.store.stats()
        return out

    def close(self) -> None:
        """Stop accepting work; the slots finish the queue, then exit.

        Waits up to 30 s per slot, so a job that never returns cannot
        hang the caller (slot threads are daemons).  Then closes the
        store if this client opened it.
        """
        with self._cv:
            self._shutdown = True
            self._cv.notify_all()
        for t in self._threads:
            t.join(timeout=30.0)
        if self.store is not None and self._owns_store:
            self.store.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
