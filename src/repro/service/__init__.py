"""repro.service: a result cache and an executor for simulation jobs.

Turns the simulator into a long-lived evaluation service:

* :class:`JobSpec` — canonical job model with a stable content digest
  over (machine preset, policy, workload, seed).
* :class:`ResultStore` and friends — content-addressed result cache
  (memory / JSONL / SQLite), versioned by the record schema.
* :class:`Scheduler` — store lookup, twin reuse and in-flight dedup in
  front of one FIFO drained by N executor slots (isolated worker
  processes or inline).  An attempt may carry a timeout; a crash or
  timeout is retried a bounded number of times and never takes down
  the pool.
* :class:`ServiceClient` — the in-process front-end ``sweep()`` rides.
* ``python -m repro.service`` — demo / submit / status.
"""

from repro.service.client import ServiceClient
from repro.service.jobs import JobSpec, JobStatus
from repro.service.scheduler import JobFailed, JobHandle, Scheduler, ServiceError
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
    "execute_jobspec",
    "open_store",
    "record_checksum",
]
