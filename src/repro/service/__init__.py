"""repro.service: a sharded simulation-job service with result caching.

Turns the simulator into a long-lived evaluation service:

* :class:`JobSpec` — canonical job model with a stable content digest
  over (machine preset, policy, workload, seed).
* :class:`ResultStore` and friends — content-addressed result cache
  (memory / JSONL / SQLite), versioned by the record schema.
* :class:`Scheduler` — priority queues sharded over isolated worker
  processes, in-flight dedup, bounded-queue backpressure, per-job
  timeout + retry-with-backoff + cancellation; a worker crash is a
  retryable event, never a pool failure.
* :class:`ServiceClient` — the in-process front-end ``sweep()`` rides.
* ``python -m repro.service`` — demo / submit / status.
"""

from repro.service.client import ServiceClient
from repro.service.clock import SYSTEM_CLOCK, Clock, FakeClock, SystemClock
from repro.service.jobs import JobSpec, JobStatus
from repro.service.scheduler import (
    BackpressureError,
    CircuitOpenError,
    JobCancelled,
    JobFailed,
    JobHandle,
    Scheduler,
    ServiceError,
)
from repro.service.store import (
    JsonlStore,
    MemoryStore,
    ResultStore,
    SqliteStore,
    open_store,
    record_checksum,
)
from repro.service.worker import execute_jobspec

__all__ = [
    "SYSTEM_CLOCK",
    "BackpressureError",
    "CircuitOpenError",
    "Clock",
    "FakeClock",
    "JobCancelled",
    "JobFailed",
    "JobHandle",
    "JobSpec",
    "JobStatus",
    "JsonlStore",
    "MemoryStore",
    "ResultStore",
    "Scheduler",
    "ServiceClient",
    "ServiceError",
    "SqliteStore",
    "SystemClock",
    "execute_jobspec",
    "open_store",
    "record_checksum",
]
