"""The job scheduler: priority queues, sharded workers, dedup, retries.

Design (one :class:`Scheduler` instance = one service):

* **Sharding.**  ``shards`` worker threads each own a priority queue;
  a job lands on shard ``int(digest[:8], 16) % shards``, so identical
  digests always route to the same shard (dedup stays shard-local and
  the store sees one writer per digest).  Total concurrency = shards.
* **Executors.**  ``"process"`` runs every attempt in a fresh child
  process (fork when available): a worker crash kills only that child,
  never the pool, and timeouts/cancellation are enforced by terminating
  it.  ``"inline"`` runs the job in the shard thread — the serial fast
  path `sweep()` uses for single-worker hosts, and what tests use to
  inject failures deterministically.
* **Caching + dedup.**  Submission first consults the content-addressed
  :class:`~repro.service.store.ResultStore` (hit -> completed handle,
  no work), then the in-flight table (identical digest already queued
  or running -> the same handle is returned and the work happens once).
* **Twin reuse.**  A store miss whose *twin* has completed under this
  scheduler — a job with the same
  :meth:`~repro.service.jobs.JobSpec.evaluation_digest`, i.e. the same
  simulation under another policy label — is served from the twin's
  stored record, relabeled with the spec's policy and written through
  under the spec's own digest.  It is booked as a cache hit.
* **Backpressure.**  The queue is bounded; ``submit`` blocks until
  space frees (or raises :class:`BackpressureError` with ``block=False``
  or on timeout), so a fast producer cannot grow memory without bound.
* **Failure semantics.**  Each attempt may end ok / error / crash /
  timeout; non-ok outcomes retry with exponential backoff up to
  ``max_retries``, then the job fails with its full attempt history.
  Cancellation is honoured queued (immediate) and mid-run (child
  terminated; inline runs finish their attempt, then cancel).
* **Graceful degradation.**  Two policies keep one failing component
  from sinking the service:

  - a **per-shard circuit breaker**: after ``breaker_threshold``
    consecutive failed attempts a shard *opens* and fails its jobs fast
    with :class:`CircuitOpenError` (a typed ``ServiceError``) instead of
    burning retry budgets; after ``breaker_cooldown_s`` one half-open
    probe job is admitted, and its outcome closes or re-opens the shard.
  - **cache-store fallback**: store errors (I/O faults, corrupt
    payloads) are booked and retried-around; after
    ``store_failure_limit`` consecutive errors the store is *demoted to
    miss-only* — jobs keep running uncached rather than failing.

* **Determinism aids.**  Retry backoff and breaker cooldowns read time
  through an injectable :class:`~repro.service.clock.Clock`, so tests
  drive them with a virtual clock; :mod:`repro.faultline` hook points
  (``sched.attempt.kill``) inject deterministic attempt crashes.

Counters and per-job spans are exported through ``repro.obs`` when a
recording observer is supplied; the default NULL_OBSERVER keeps the
scheduler observability-free at zero cost.
"""

from __future__ import annotations

import heapq
import itertools
import multiprocessing as mp
import threading
import time

from repro.faultline import hooks as _fault_hooks
from repro.faultline.faults import WorkerKillFault
from repro.obs import NULL_OBSERVER, BaseObserver
from repro.obs import metrics as obs_metrics
from repro.obs.metrics import MetricsRegistry
from repro.service.clock import SYSTEM_CLOCK, Clock
from repro.service.jobs import JobSpec, JobStatus
from repro.service.store import ResultStore
from repro.service.worker import apply_worker_faults, child_main, execute_jobspec


class ServiceError(Exception):
    """Base class for service-layer errors."""


class BackpressureError(ServiceError):
    """The bounded queue is full and the caller declined to wait."""


class JobCancelled(ServiceError):
    """Raised by ``JobHandle.result()`` for a cancelled job."""


class JobFailed(ServiceError):
    """Raised by ``JobHandle.result()`` when all attempts failed.

    ``attempts`` holds the per-attempt outcome dicts (outcome, error,
    started/ended wall-clock), newest last.
    """

    def __init__(self, message: str, attempts: list[dict]) -> None:
        super().__init__(message)
        self.attempts = attempts


class CircuitOpenError(JobFailed):
    """Raised for a job failed fast because its shard's breaker is open.

    A subclass of :class:`JobFailed`, so callers handling generic job
    failure keep working; the distinct type lets chaos campaigns and
    clients tell "the shard is deliberately shedding load" from "the
    job itself kept failing".
    """


class _Breaker:
    """Per-shard circuit breaker (state mutated under the scheduler lock).

    closed -> open after ``threshold`` consecutive attempt failures;
    open -> half-open after ``cooldown_s`` (one probe job admitted);
    half-open -> closed on probe success, -> open on probe failure.
    """

    __slots__ = ("threshold", "cooldown_s", "state", "failures",
                 "opened_at", "probing")

    def __init__(self, threshold: int | None, cooldown_s: float) -> None:
        self.threshold = threshold
        self.cooldown_s = cooldown_s
        self.state = "closed"
        self.failures = 0
        self.opened_at = 0.0
        self.probing = False

    def allow(self, now: float) -> bool:
        """Whether a job may run now (admits the half-open probe)."""
        if self.threshold is None or self.state == "closed":
            return True
        if self.state == "open":
            if now - self.opened_at < self.cooldown_s:
                return False
            self.state = "half_open"
            self.probing = False
        if self.state == "half_open":
            if self.probing:
                return False
            self.probing = True
        return True

    def record(self, ok: bool, now: float) -> str | None:
        """Book one attempt outcome; returns a state transition or None."""
        if self.threshold is None:
            return None
        if ok:
            self.failures = 0
            if self.state != "closed":
                self.state = "closed"
                self.probing = False
                return "close"
            return None
        self.failures += 1
        if self.state == "half_open" or (
            self.state == "closed" and self.failures >= self.threshold
        ):
            self.state = "open"
            self.opened_at = now
            self.probing = False
            return "open"
        return None


class _Job:
    """Internal mutable job state (lock discipline: scheduler._cv)."""

    __slots__ = (
        "spec", "digest", "seq", "shard", "status", "attempts", "result",
        "error", "from_cache", "cancel_requested", "done", "proc",
        "failure_kind", "enqueued_ns",
    )

    def __init__(self, spec: JobSpec, digest: str, seq: int, shard: int) -> None:
        self.spec = spec
        self.digest = digest
        self.seq = seq
        self.shard = shard
        self.status = JobStatus.QUEUED
        self.attempts: list[dict] = []
        self.result: dict | None = None
        self.error: str | None = None
        self.from_cache = False
        self.cancel_requested = False
        self.done = threading.Event()
        self.proc = None  # live child process while a process attempt runs
        self.failure_kind: str | None = None  # "circuit_open" for breaker fails
        self.enqueued_ns = 0  # monotonic ns at submit (queue-wait metric)


class JobHandle:
    """Caller-facing view of one submitted job (future-like)."""

    def __init__(self, job: _Job, scheduler: "Scheduler") -> None:
        self._job = job
        self._scheduler = scheduler

    @property
    def digest(self) -> str:
        """The job's content digest (the cache key)."""
        return self._job.digest

    @property
    def spec(self) -> JobSpec:
        """The spec this handle was submitted with."""
        return self._job.spec

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

    def done(self) -> bool:
        """Whether the job reached a terminal state."""
        return self._job.done.is_set()

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the job is terminal; True if it finished in time."""
        return self._job.done.wait(timeout)

    def result(self, timeout: float | None = None) -> dict:
        """The record-JSON result; raises on failure/cancel/timeout."""
        if not self._job.done.wait(timeout):
            raise TimeoutError(
                f"job {self._job.spec.label} not done after {timeout}s"
            )
        if self._job.status is JobStatus.COMPLETED:
            assert self._job.result is not None
            return self._job.result
        if self._job.status is JobStatus.CANCELLED:
            raise JobCancelled(f"job {self._job.spec.label} was cancelled")
        exc_type = (
            CircuitOpenError if self._job.failure_kind == "circuit_open"
            else JobFailed
        )
        raise exc_type(
            f"job {self._job.spec.label} failed: {self._job.error}",
            list(self._job.attempts),
        )

    def cancel(self) -> bool:
        """Request cancellation; True unless the job is already terminal.

        Queued jobs cancel immediately; a running process-executor
        attempt has its child terminated, and an inline attempt is
        cancelled at its next boundary.
        """
        return self._scheduler._cancel(self._job)


class Scheduler:
    """Sharded job scheduler with caching, retries, and backpressure.

    Args:
        store: result store for content-addressed reuse, including twin
            reuse (None disables caching entirely — every submit runs).
        shards: worker threads / maximum concurrent jobs.
        executor: ``"process"`` (isolated child per attempt) or
            ``"inline"`` (run in the shard thread).
        runner: callable ``(JobSpec) -> dict`` executed per attempt;
            defaults to the real simulator worker.  Tests substitute
            fault-injecting runners here.
        queue_capacity: bound on queued-but-not-running jobs across all
            shards (backpressure threshold).
        backoff_base_s / backoff_max_s: retry delay is
            ``min(base * 2**attempt, max)``.
        poll_interval_s: child-process supervision cadence (timeout and
            cancellation latency).
        observer: ``repro.obs`` observer for counters and per-job spans.
        mp_context: multiprocessing start-method name; defaults to
            "fork" where available (fast) else "spawn".
        clock: time source for retry backoff and breaker cooldown
            (tests inject a :class:`~repro.service.clock.FakeClock`;
            child supervision stays on the real clock).
        breaker_threshold: consecutive attempt failures that open a
            shard's circuit breaker (None disables the breaker).
        breaker_cooldown_s: open-state dwell before a half-open probe.
        store_failure_limit: consecutive store errors before the store
            is demoted to miss-only for the scheduler's lifetime.
        metrics: labeled :class:`~repro.obs.metrics.MetricsRegistry`
            for queue-wait/attempt-latency histograms, retry/backoff
            counters, and breaker-state gauges; defaults to the
            process-ambient registry (None when metrics are off).
            Worker children record into a fresh registry and their
            snapshots merge here when their attempt reports.
    """

    def __init__(
        self,
        store: ResultStore | None = None,
        shards: int = 1,
        executor: str = "process",
        runner=execute_jobspec,
        queue_capacity: int = 1024,
        backoff_base_s: float = 0.05,
        backoff_max_s: float = 2.0,
        poll_interval_s: float = 0.02,
        observer: BaseObserver = NULL_OBSERVER,
        mp_context: str | None = None,
        clock: Clock = SYSTEM_CLOCK,
        breaker_threshold: int | None = 8,
        breaker_cooldown_s: float = 5.0,
        store_failure_limit: int = 3,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if executor not in ("process", "inline"):
            raise ValueError(f"unknown executor {executor!r}")
        if queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        if breaker_threshold is not None and breaker_threshold < 1:
            raise ValueError("breaker_threshold must be >= 1 or None")
        if store_failure_limit < 1:
            raise ValueError("store_failure_limit must be >= 1")
        self.store = store
        self.shards = shards
        self.executor = executor
        self.runner = runner
        self.queue_capacity = queue_capacity
        self.backoff_base_s = backoff_base_s
        self.backoff_max_s = backoff_max_s
        self.poll_interval_s = poll_interval_s
        self.obs = observer
        self.clock = clock
        self.store_failure_limit = store_failure_limit
        self.metrics = metrics if metrics is not None else obs_metrics.active()
        if mp_context is None:
            mp_context = (
                "fork" if "fork" in mp.get_all_start_methods() else "spawn"
            )
        self._mp = mp.get_context(mp_context)

        self._cv = threading.Condition()
        self._queues: list[list] = [[] for _ in range(shards)]
        self._inflight: dict[str, _Job] = {}
        self._queued = 0
        self._running = 0
        self._seq = itertools.count()
        self._shutdown = False
        self._t0 = time.monotonic()
        self._breakers = [
            _Breaker(breaker_threshold, breaker_cooldown_s)
            for _ in range(shards)
        ]
        self._store_failures = 0   # consecutive; resets on success
        self._store_demoted = False
        #: evaluation digest -> digest of a completed job (twin reuse).
        self._twins: dict[str, str] = {}

        # Counters (read under _cv or via stats()).
        self.counters = {
            "submitted": 0, "cache_hits": 0, "cache_misses": 0,
            "dedup_hits": 0, "completed": 0, "failed": 0, "cancelled": 0,
            "retries": 0, "timeouts": 0, "crashes": 0, "errors": 0,
            "store_errors": 0, "store_demotions": 0,
            "breaker_opens": 0, "breaker_fast_fails": 0,
        }
        self._register_obs_counters()

        self._threads = [
            threading.Thread(
                target=self._worker_loop, args=(i,),
                name=f"repro-service-shard-{i}", daemon=True,
            )
            for i in range(shards)
        ]
        for t in self._threads:
            t.start()

    # ------------------------------------------------------------------ obs
    def _register_obs_counters(self) -> None:
        if not self.obs.enabled:
            return
        for name in self.counters:
            self.obs.register_counter(
                f"service.{name}",
                lambda now, key=name: float(self.counters[key]),
            )
        self.obs.register_counter(
            "service.queue_depth", lambda now: float(self._queued)
        )
        self.obs.register_counter(
            "service.running", lambda now: float(self._running)
        )
        self.obs.register_counter(
            "service.breaker.open_shards",
            lambda now: float(
                sum(1 for b in self._breakers if b.state != "closed")
            ),
        )

        def _injected(now: float) -> float:
            injector = _fault_hooks.active()
            return float(injector.fire_count()) if injector else 0.0

        self.obs.register_counter("service.faults_injected", _injected)
        if self.store is not None:
            self.obs.register_counter(
                "service.store.hits", lambda now: float(self.store.hits)
            )
            self.obs.register_counter(
                "service.store.misses", lambda now: float(self.store.misses)
            )
            self.obs.register_counter(
                "service.store.entries", lambda now: float(len(self.store))
            )
            self.obs.register_counter(
                "service.store.corrupt", lambda now: float(self.store.corrupt)
            )

    def _now_ns(self) -> float:
        """Wall-clock ns since scheduler start (span timestamps)."""
        return (time.monotonic() - self._t0) * 1e9

    # ------------------------------------------------------- store degradation
    def _store_get(self, digest: str) -> dict | None:
        """Guarded store lookup: errors degrade to a miss, never fail the job.

        After ``store_failure_limit`` consecutive errors the store is
        demoted to miss-only (reads and writes both bypassed) for this
        scheduler's lifetime, so a dead backing medium costs cache
        effectiveness, not availability.
        """
        if self.store is None or self._store_demoted:
            return None
        try:
            cached = self.store.get(digest)
        except Exception as exc:  # noqa: BLE001 - any backend error degrades
            self._book_store_error(exc)
            return None
        with self._cv:
            self._store_failures = 0
        return cached

    def _store_put(self, digest: str, spec: dict, record: dict) -> None:
        """Guarded store write (same degradation contract as `_store_get`)."""
        if self.store is None or self._store_demoted:
            return
        try:
            self.store.put(digest, spec, record)
        except Exception as exc:  # noqa: BLE001 - any backend error degrades
            self._book_store_error(exc)
            return
        with self._cv:
            self._store_failures = 0

    def _twin_get(self, spec: JobSpec, digest: str) -> dict | None:
        """The stored record of a completed twin of ``spec``, relabeled.

        Written through under ``digest``, so later lookups of this spec
        (a warm rerun, another scheduler on the same store) hit directly.
        None when no twin completed here or its record cannot be read.
        """
        twin = self._twins.get(spec.evaluation_digest())
        if twin is None:
            return None
        record = self._store_get(twin)
        if record is None:
            return None
        record = {**record, "policy": spec.policy_label}
        self._store_put(digest, spec.to_json(), record)
        return record

    def _book_store_error(self, exc: Exception) -> None:
        demoted = False
        with self._cv:
            self.counters["store_errors"] += 1
            self._store_failures += 1
            if (
                not self._store_demoted
                and self._store_failures >= self.store_failure_limit
            ):
                self._store_demoted = True
                self.counters["store_demotions"] += 1
                demoted = True
        if self.obs.enabled:
            self.obs.instant(
                "service.store.error", self._now_ns(), track="service",
                args={"error": f"{type(exc).__name__}: {exc}"},
            )
            if demoted:
                self.obs.instant(
                    "service.store.demoted", self._now_ns(), track="service",
                    args={"after_errors": self.store_failure_limit},
                )

    # --------------------------------------------------------------- submit
    def submit(
        self,
        spec: JobSpec,
        block: bool = True,
        timeout: float | None = None,
    ) -> JobHandle:
        """Submit one job; returns immediately with a handle.

        Resolution order: result-store hit, or a completed twin's stored
        record -> completed handle; identical digest already in flight
        -> that job's handle (``force_run`` specs skip all three).
        Otherwise the job queues on its digest's shard, waiting for
        queue space per ``block``/``timeout`` (:class:`BackpressureError`
        when exhausted).
        """
        digest = spec.digest()
        submitted_ns = time.monotonic_ns()
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cv:
            if self._shutdown:
                raise ServiceError("scheduler is shut down")
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
                        job = _Job(spec, digest, next(self._seq), shard=-1)
                        job.status = JobStatus.COMPLETED
                        job.result = cached
                        job.from_cache = True
                        job.done.set()
                        if self.metrics is not None:
                            self.metrics.counter(
                                "sched.jobs", outcome="cache_hit"
                            ).inc()
                        return JobHandle(job, self)
                    self.counters["cache_misses"] += 1
                existing = self._inflight.get(digest)
                if existing is not None:
                    self.counters["dedup_hits"] += 1
                    if self.metrics is not None:
                        self.metrics.counter(
                            "sched.jobs", outcome="dedup"
                        ).inc()
                    return JobHandle(existing, self)
            while self._queued >= self.queue_capacity:
                if not block:
                    raise BackpressureError(
                        f"queue full ({self.queue_capacity} jobs)"
                    )
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    raise BackpressureError(
                        f"queue still full after {timeout}s"
                    )
                self._cv.wait(remaining if remaining is not None
                              else self.poll_interval_s * 10)
                if self._shutdown:
                    raise ServiceError("scheduler is shut down")
            shard = int(digest[:8], 16) % self.shards
            job = _Job(spec, digest, next(self._seq), shard)
            job.enqueued_ns = submitted_ns
            heapq.heappush(self._queues[shard], (-spec.priority, job.seq, job))
            self._queued += 1
            if self.metrics is not None:
                self.metrics.gauge("sched.queue_depth").set(self._queued)
            if not spec.force_run:
                self._inflight[digest] = job
            self._cv.notify_all()
        return JobHandle(job, self)

    # --------------------------------------------------------------- cancel
    def _cancel(self, job: _Job) -> bool:
        with self._cv:
            if job.status.terminal:
                return False
            job.cancel_requested = True
            if job.status is JobStatus.QUEUED:
                # Finalize now; the worker drops it at dequeue time.
                self._queued -= 1
                self._finalize_locked(job, JobStatus.CANCELLED)
                return True
            proc = job.proc
        if proc is not None:
            proc.terminate()  # worker loop reaps and books the cancel
        return True

    # ---------------------------------------------------------- worker loop
    def _worker_loop(self, shard: int) -> None:
        queue = self._queues[shard]
        while True:
            with self._cv:
                while not queue and not self._shutdown:
                    self._cv.wait()
                if self._shutdown and not queue:
                    return
                _, _, job = heapq.heappop(queue)
                if job.status.terminal:  # cancelled while queued
                    continue
                job.status = JobStatus.RUNNING
                self._queued -= 1
                self._running += 1
                if self.metrics is not None:
                    self.metrics.gauge("sched.queue_depth").set(self._queued)
                    self.metrics.gauge("sched.running").set(self._running)
                    self.metrics.histogram(
                        "sched.queue_wait_s", shard=shard
                    ).observe((time.monotonic_ns() - job.enqueued_ns) / 1e9)
                self._cv.notify_all()
                allowed = self._breakers[shard].allow(self.clock.monotonic())
                if not allowed:
                    self.counters["breaker_fast_fails"] += 1
                    if self.metrics is not None:
                        self.metrics.counter(
                            "sched.breaker_fast_fails", shard=shard
                        ).inc()
            if not allowed:
                # Load shedding: the shard's breaker is open, fail fast
                # with a typed error instead of burning the retry budget.
                job.error = (
                    f"circuit breaker open on shard {shard} "
                    "(shard is shedding load after consecutive failures)"
                )
                job.failure_kind = "circuit_open"
                if self.obs.enabled:
                    self.obs.instant(
                        f"breaker.fast_fail:{job.spec.label}", self._now_ns(),
                        track="service", tid=shard,
                        args={"digest": job.digest[:12]},
                    )
                self._finalize(job, JobStatus.FAILED)
                with self._cv:
                    self._running -= 1
                    if self.metrics is not None:
                        self.metrics.gauge("sched.running").set(self._running)
                    self._cv.notify_all()
                continue
            try:
                self._run_with_retries(job, shard)
            finally:
                with self._cv:
                    self._running -= 1
                    if self.metrics is not None:
                        self.metrics.gauge("sched.running").set(self._running)
                    self._cv.notify_all()

    def _run_with_retries(self, job: _Job, shard: int) -> None:
        spec = job.spec
        for attempt in range(spec.max_retries + 1):
            if job.cancel_requested:
                self._finalize(job, JobStatus.CANCELLED)
                return
            begin_ns = self._now_ns()
            started = time.time()
            attempt_begin = time.monotonic_ns()
            outcome = self._execute_attempt(job, attempt)
            attempt_end = time.monotonic_ns()
            record = {
                "attempt": attempt,
                "outcome": outcome[0],
                "error": outcome[1] if len(outcome) > 1 else None,
                "started": started,
                "ended": time.time(),
            }
            job.attempts.append(record)
            if self.obs.enabled:
                self.obs.span(
                    f"job:{spec.label}", begin_ns, self._now_ns(),
                    track="service", tid=shard,
                    args={"digest": job.digest[:12], "attempt": attempt,
                          "outcome": outcome[0]},
                )
            if self.metrics is not None:
                self.metrics.histogram(
                    "sched.attempt_s", shard=shard, outcome=outcome[0]
                ).observe((attempt_end - attempt_begin) / 1e9)
            kind = outcome[0]
            if kind != "cancelled":
                self._book_breaker(shard, ok=(kind == "ok"))
            if kind == "ok":
                result = outcome[1]
                self._store_put(job.digest, spec.to_json(), result)
                if self.store is not None:
                    twin_key = spec.evaluation_digest()
                    with self._cv:
                        self._twins[twin_key] = job.digest
                job.result = result
                self._finalize(job, JobStatus.COMPLETED)
                return
            if kind == "cancelled" or job.cancel_requested:
                self._finalize(job, JobStatus.CANCELLED)
                return
            with self._cv:
                if kind == "timeout":
                    self.counters["timeouts"] += 1
                elif kind == "crash":
                    self.counters["crashes"] += 1
                else:
                    self.counters["errors"] += 1
            job.error = record["error"]
            if attempt < spec.max_retries:
                with self._cv:
                    self.counters["retries"] += 1
                if self.obs.enabled:
                    self.obs.instant(
                        f"retry:{spec.label}", self._now_ns(),
                        track="service", tid=shard,
                        args={"attempt": attempt, "reason": kind},
                    )
                backoff = min(
                    self.backoff_base_s * (2 ** attempt), self.backoff_max_s
                )
                if self.metrics is not None:
                    self.metrics.counter("sched.retries", reason=kind).inc()
                    self.metrics.histogram("sched.backoff_s").observe(backoff)
                # Sleep in poll-sized slices so cancellation stays prompt.
                # Time flows through the injected clock: a FakeClock makes
                # the whole backoff schedule virtual (and instant) in tests.
                deadline = self.clock.monotonic() + backoff
                while self.clock.monotonic() < deadline:
                    if job.cancel_requested:
                        self._finalize(job, JobStatus.CANCELLED)
                        return
                    self.clock.sleep(
                        min(self.poll_interval_s,
                            max(0.0, deadline - self.clock.monotonic()))
                    )
        self._finalize(job, JobStatus.FAILED)

    #: gauge encoding of breaker states (dashboard renders the name).
    _BREAKER_LEVELS = {"closed": 0.0, "half_open": 1.0, "open": 2.0}

    def _book_breaker(self, shard: int, ok: bool) -> None:
        """Feed one attempt outcome to the shard's circuit breaker."""
        now = self.clock.monotonic()
        with self._cv:
            transition = self._breakers[shard].record(ok, now)
            if transition == "open":
                self.counters["breaker_opens"] += 1
            state = self._breakers[shard].state
        if self.metrics is not None:
            self.metrics.gauge("sched.breaker_state", shard=shard).set(
                self._BREAKER_LEVELS[state]
            )
            if transition is not None:
                self.metrics.counter(
                    "sched.breaker_transitions", to=("closed" if
                    transition == "close" else "open"), shard=shard,
                ).inc()
        if transition is not None and self.obs.enabled:
            self.obs.instant(
                f"service.breaker.{transition}", self._now_ns(),
                track="service", tid=shard, args={"shard": shard},
            )

    def _absorb_metrics(self, snapshot: dict | None) -> None:
        """Merge a worker child's metrics snapshot into this process.

        The snapshot rides as the final element of the child's
        result-pipe message; counters and histogram buckets add, so the
        service-wide histograms see the child's samples.
        """
        if self.metrics is not None and snapshot:
            self.metrics.merge(snapshot)

    def _execute_attempt(self, job: _Job, attempt: int) -> tuple:
        """One attempt: ("ok", result) | ("err"|"crash"|"timeout", msg) |
        ("cancelled", msg)."""
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
        if self.executor == "inline":
            try:
                apply_worker_faults(job.spec, in_child=False)
                result = self.runner(job.spec)
                outcome = ("ok", result)
            except WorkerKillFault as exc:
                outcome = ("crash", f"faultline: {exc}")
            except Exception as exc:  # noqa: BLE001 - booked as attempt outcome
                outcome = ("err", f"{type(exc).__name__}: {exc}")
            return outcome
        return self._execute_in_process(job)

    def _execute_in_process(self, job: _Job) -> tuple:
        """Run one attempt in a fresh child process and supervise it.

        The child reports once over a pipe; timeouts and cancellation
        are enforced by terminating it, and a child that exits without
        reporting is booked as a crash.
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
        job.proc = proc
        deadline = (
            None if spec.timeout_s is None
            else time.monotonic() + spec.timeout_s
        )
        try:
            while True:
                if recv.poll(self.poll_interval_s):
                    try:
                        msg = recv.recv()
                    except EOFError:
                        break
                    proc.join()
                    self._absorb_metrics(msg[-1])
                    return (msg[0], msg[1])
                if job.cancel_requested:
                    return ("cancelled", "terminated on cancel request")
                if deadline is not None and time.monotonic() >= deadline:
                    return ("timeout", f"attempt exceeded {spec.timeout_s}s")
                if not proc.is_alive() and not recv.poll():
                    break
            proc.join()
            return ("crash",
                    f"worker exited with code {proc.exitcode} "
                    "before reporting a result")
        finally:
            job.proc = None
            if proc.is_alive():
                proc.terminate()
            proc.join()
            recv.close()

    def _finalize(self, job: _Job, status: JobStatus) -> None:
        with self._cv:
            self._finalize_locked(job, status)

    def _finalize_locked(self, job: _Job, status: JobStatus) -> None:
        job.status = status
        if self._inflight.get(job.digest) is job:
            del self._inflight[job.digest]
        key = {
            JobStatus.COMPLETED: "completed",
            JobStatus.FAILED: "failed",
            JobStatus.CANCELLED: "cancelled",
        }[status]
        self.counters[key] += 1
        if self.metrics is not None:
            self.metrics.counter("sched.jobs", outcome=key).inc()
        job.done.set()
        self._cv.notify_all()

    # ---------------------------------------------------------------- admin
    def drain(self, timeout: float | None = None) -> bool:
        """Block until no job is queued or running; True if drained."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cv:
            while self._queued > 0 or self._running > 0:
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    return False
                self._cv.wait(remaining if remaining is not None else 1.0)
            return True

    def stats(self) -> dict:
        """Snapshot of counters plus queue/running depth and store stats."""
        with self._cv:
            out = dict(self.counters)
            out["queue_depth"] = self._queued
            out["running"] = self._running
            out["shards"] = self.shards
            out["executor"] = self.executor
        if self.store is not None:
            out["store"] = self.store.stats()
        return out

    def shutdown(self, wait: bool = True, cancel_pending: bool = False) -> None:
        """Stop accepting work and stop shard threads.

        With ``cancel_pending`` queued jobs are cancelled; otherwise
        shard threads finish the queue first (when ``wait``).
        """
        with self._cv:
            self._shutdown = True
            if cancel_pending:
                for queue in self._queues:
                    for _, _, job in queue:
                        if not job.status.terminal:
                            self._queued -= 1
                            self._finalize_locked(job, JobStatus.CANCELLED)
                    queue.clear()
            self._cv.notify_all()
        if wait:
            for t in self._threads:
                t.join(timeout=30.0)

    def __enter__(self) -> "Scheduler":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown(wait=True)
