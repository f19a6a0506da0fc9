"""In-process front-end: a ServiceClient owning a scheduler + store.

The thin-waist API the experiments layer (``sweep()``), the policy
search, and the CLI all share.  A client opens (or adopts) a result store,
builds a scheduler over it, and converts record-JSON results back into
:class:`~repro.experiments.runner.RunRecord` objects for callers.
"""

from __future__ import annotations

from repro.experiments.runner import RunRecord
from repro.obs import metrics as obs_metrics
from repro.obs.metrics import MetricsRegistry
from repro.service.jobs import JobSpec
from repro.service.scheduler import JobHandle, Scheduler
from repro.service.store import ResultStore, open_store
from repro.service.worker import execute_jobspec


class ServiceClient:
    """Submit simulation jobs and gather typed results.

    Args:
        store: ``None`` (no caching), a path (``.jsonl``/``.sqlite``
            opened via :func:`~repro.service.store.open_store`), or an
            already-open :class:`ResultStore` (shared across clients;
            not closed by this one).
        shards / executor / runner: forwarded to :class:`Scheduler`.
        metrics: labeled metrics registry shared with the scheduler
            (defaults to the process-ambient registry; None = off).
    """

    def __init__(
        self,
        store: "str | ResultStore | None" = None,
        shards: int = 1,
        executor: str = "process",
        runner=execute_jobspec,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self._owns_store = isinstance(store, str)
        self.store = None if store is None else open_store(store)
        self.metrics = metrics if metrics is not None else obs_metrics.active()
        self.scheduler = Scheduler(
            store=self.store,
            shards=shards,
            executor=executor,
            runner=runner,
            metrics=self.metrics,
        )

    # ----------------------------------------------------------------- submit
    def submit(self, spec: JobSpec) -> JobHandle:
        """Submit one spec (see :meth:`Scheduler.submit`)."""
        return self.scheduler.submit(spec)

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

    # ------------------------------------------------------------------ admin
    def drain(self, timeout: float | None = None) -> bool:
        """Wait until the scheduler is idle; True if it drained in time."""
        return self.scheduler.drain(timeout=timeout)

    def stats(self) -> dict:
        """Scheduler + store counter snapshot."""
        return self.scheduler.stats()

    def metrics_snapshot(self) -> dict | None:
        """Labeled-metrics snapshot (None when metrics are off)."""
        return None if self.metrics is None else self.metrics.snapshot()

    def close(self) -> None:
        """Shut the scheduler down; close the store if this client opened it."""
        self.scheduler.shutdown()
        if self.store is not None and self._owns_store:
            self.store.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
