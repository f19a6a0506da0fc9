"""The content-addressed result store of the simulation-job service.

A store maps a :meth:`JobSpec.digest` to the serialized
:class:`~repro.experiments.runner.RunRecord` that evaluation produced
(plus the spec that produced it, for auditability).  One class,
:class:`ResultStore`, keeps the entries in one stdlib ``sqlite3``
table: in a file (``.sqlite``, ``.sqlite3`` or ``.db``) or in SQLite's
own ``":memory:"`` database, which lives and dies with the process.
Opening a file loads every row into an in-memory index, so ``get``
never touches the database; ``put`` upserts one row and commits it, and
a commit is atomic, so a crash costs at most the entry being written.

Entries are versioned: every payload carries the serialization
``schema_version``, and :meth:`ResultStore.get` treats a version
mismatch as a miss (never deserializes a stale layout wrongly).
Entries written by this build also carry a ``record_sha`` integrity
checksum over the canonical record JSON; a lookup whose payload fails
the checksum is booked as a *corrupt miss* instead of being returned,
so a bit-flipped store entry costs a re-simulation, never a wrong
result.  A row whose payload is not JSON is skipped on load.  Stores
count ``hits``/``misses``/``puts``/``corrupt``; ``Scheduler.stats()``
reports them under ``"store"``.

Hook points for :mod:`repro.faultline` cover the failure modes a real
backing medium has: ``store.get.io`` / ``store.put.io`` raise a typed
:class:`~repro.faultline.faults.StoreIOFault`, and ``store.get.corrupt``
feeds the integrity check a bit-flipped payload.  All three are free
when no plan is armed.
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
import threading
import time

from repro.faultline import hooks as _fault_hooks
from repro.faultline.faults import StoreIOFault
from repro.obs import metrics as _obs_metrics
from repro.sim.metrics import SCHEMA_VERSION


def record_checksum(record: dict) -> str:
    """Integrity checksum: sha256 over the canonical record JSON."""
    doc = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(doc.encode()).hexdigest()


#: File suffixes :class:`ResultStore` opens as SQLite databases.
STORE_SUFFIXES = (".sqlite", ".sqlite3", ".db")


class ResultStore:
    """Thread-safe digest -> entry mapping over one SQLite table.

    ``path`` is ``":memory:"`` (the default) or a file ending in one of
    :data:`STORE_SUFFIXES`; any other path raises ``ValueError``.  An
    in-memory index answers ``get``; ``put`` writes through to the
    table.  An *entry* is ``{"digest", "schema_version", "spec",
    "record", "record_sha", "created_at"}``.
    """

    def __init__(self, path: str = ":memory:") -> None:
        if path != ":memory:" and not path.endswith(STORE_SUFFIXES):
            raise ValueError(
                f"store path {path!r} must end in {', '.join(STORE_SUFFIXES)}"
            )
        self.path = path
        self._lock = threading.Lock()
        self._entries: dict[str, dict] = {}
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.corrupt = 0
        if path != ":memory:":
            os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        self._db = sqlite3.connect(path, check_same_thread=False)
        self._db.execute(
            "CREATE TABLE IF NOT EXISTS results ("
            "  digest TEXT PRIMARY KEY,"
            "  schema_version INTEGER NOT NULL,"
            "  payload TEXT NOT NULL)"
        )
        self._db.commit()
        for digest, payload in self._db.execute(
            "SELECT digest, payload FROM results"
        ):
            try:
                self._entries[digest] = json.loads(payload)
            except json.JSONDecodeError:
                continue

    # ----------------------------------------------------------------- access
    def get(self, digest: str) -> dict | None:
        """The stored record payload for ``digest``, or None on miss.

        A schema-version mismatch counts as a miss: the entry stays on
        disk (an older build may still want it) but is never returned.
        A payload failing its ``record_sha`` integrity check is a
        *corrupt* miss — counted separately, never returned.
        """
        rule = _fault_hooks.should_fire("store.get.io", digest[:12])
        if rule is not None:
            raise StoreIOFault("store.get.io", digest[:12], "simulated read error")
        registry = _obs_metrics.active()
        t0 = time.perf_counter() if registry is not None else 0.0
        result = "hit"
        try:
            with self._lock:
                entry = self._entries.get(digest)
                if entry is None or entry.get("schema_version") != SCHEMA_VERSION:
                    self.misses += 1
                    result = "miss"
                    return None
                record = entry["record"]
                expected = entry.get("record_sha")
                if _fault_hooks.should_fire("store.get.corrupt", digest[:12]):
                    # Feed the integrity check a bit-flipped payload, exactly
                    # like a torn write or medium corruption would.
                    record = dict(record)
                    record["__faultline_corruption__"] = True
                    expected = expected or record_checksum(entry["record"])
                if expected is not None and record_checksum(record) != expected:
                    self.corrupt += 1
                    self.misses += 1
                    result = "corrupt"
                    return None
                self.hits += 1
                return record
        finally:
            if registry is not None:
                registry.histogram("store.get_s", result=result).observe(
                    time.perf_counter() - t0
                )
                registry.counter("store.ops", op="get", result=result).inc()

    def put(self, digest: str, spec: dict, record: dict) -> None:
        """Store ``record`` (a ``RunRecord.to_json()`` dict) under ``digest``."""
        rule = _fault_hooks.should_fire("store.put.io", digest[:12])
        if rule is not None:
            raise StoreIOFault("store.put.io", digest[:12], "simulated write error")
        registry = _obs_metrics.active()
        t0 = time.perf_counter() if registry is not None else 0.0
        entry = {
            "digest": digest,
            "schema_version": SCHEMA_VERSION,
            "spec": spec,
            "record": record,
            "record_sha": record_checksum(record),
            "created_at": time.time(),
        }
        with self._lock:
            self._entries[digest] = entry
            self._db.execute(
                "INSERT INTO results (digest, schema_version, payload) "
                "VALUES (?, ?, ?) ON CONFLICT(digest) DO UPDATE SET "
                "schema_version = excluded.schema_version, "
                "payload = excluded.payload",
                (digest, SCHEMA_VERSION, json.dumps(entry)),
            )
            self._db.commit()
            self.puts += 1
        if registry is not None:
            registry.histogram("store.put_s").observe(
                time.perf_counter() - t0
            )
            registry.counter("store.ops", op="put", result="ok").inc()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, digest: str) -> bool:
        with self._lock:
            return digest in self._entries

    def stats(self) -> dict[str, int]:
        """Counter snapshot: entries / hits / misses / puts / corrupt."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "puts": self.puts,
                "corrupt": self.corrupt,
            }

    def close(self) -> None:
        """Close the SQLite connection (the in-memory index stays usable)."""
        self._db.close()


def open_store(target: "str | os.PathLike | ResultStore | None") -> ResultStore:
    """Open a store from a path (str or path-like) or pass an existing
    one through.

    ``None`` / ``":memory:"`` -> an in-memory store; a path ending in
    ``.sqlite``, ``.sqlite3`` or ``.db`` -> that file; any other path
    raises ``ValueError``.
    """
    if isinstance(target, ResultStore):
        return target
    return ResultStore(":memory:" if target is None else os.fspath(target))
