"""Result stores: round trips, persistence, schema versioning."""

from __future__ import annotations

import json
import sqlite3

import pytest

from repro.service import (
    JsonlStore,
    MemoryStore,
    ServiceClient,
    SqliteStore,
    open_store,
)
from repro.service.store import ResultStore
from repro.sim.metrics import SCHEMA_VERSION

SPEC = {"bench": "lbm", "policy": "mem+llc"}
RECORD = {"schema_version": SCHEMA_VERSION, "bench": "lbm", "runtime": 1.5}


def _backends(tmp_path):
    return [
        MemoryStore(),
        JsonlStore(str(tmp_path / "results.jsonl")),
        SqliteStore(str(tmp_path / "results.sqlite")),
    ]


class TestCommonBehavior:
    def test_put_get_roundtrip_all_backends(self, tmp_path):
        for store in _backends(tmp_path):
            assert store.get("d1") is None
            store.put("d1", SPEC, RECORD)
            assert store.get("d1") == RECORD
            assert "d1" in store
            assert len(store) == 1
            stats = store.stats()
            assert stats == {
                "entries": 1, "hits": 1, "misses": 1, "puts": 1, "corrupt": 0,
            }
            store.close()

    def test_last_write_wins(self, tmp_path):
        for store in _backends(tmp_path):
            store.put("d1", SPEC, RECORD)
            newer = {**RECORD, "runtime": 9.0}
            store.put("d1", SPEC, newer)
            assert store.get("d1") == newer
            assert len(store) == 1
            store.close()


class TestPersistence:
    def test_jsonl_survives_reopen(self, tmp_path):
        path = str(tmp_path / "results.jsonl")
        store = JsonlStore(path)
        store.put("d1", SPEC, RECORD)
        store.close()
        reopened = JsonlStore(path)
        assert reopened.get("d1") == RECORD
        reopened.close()

    def test_jsonl_ignores_torn_tail_line(self, tmp_path):
        path = str(tmp_path / "results.jsonl")
        store = JsonlStore(path)
        store.put("d1", SPEC, RECORD)
        store.close()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"digest": "d2", "truncated...')
        reopened = JsonlStore(path)
        assert reopened.get("d1") == RECORD
        assert reopened.get("d2") is None
        reopened.close()

    def test_jsonl_skips_blank_lines(self, tmp_path):
        path = str(tmp_path / "results.jsonl")
        store = JsonlStore(path)
        store.put("d1", SPEC, RECORD)
        store.close()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("\n\n")
        reopened = JsonlStore(path)
        assert reopened.get("d1") == RECORD and len(reopened) == 1
        reopened.close()

    def test_sqlite_skips_a_corrupt_payload(self, tmp_path):
        path = str(tmp_path / "results.sqlite")
        store = SqliteStore(path)
        store.put("d1", SPEC, RECORD)
        store._db.execute(
            "INSERT INTO results VALUES ('d2', ?, '{not json')",
            (SCHEMA_VERSION,),
        )
        store._db.commit()
        store.close()
        reopened = SqliteStore(path)
        assert reopened.get("d1") == RECORD
        assert reopened.get("d2") is None
        reopened.close()

    def test_sqlite_survives_reopen(self, tmp_path):
        path = str(tmp_path / "results.sqlite")
        store = SqliteStore(path)
        store.put("d1", SPEC, RECORD)
        store.close()
        reopened = SqliteStore(path)
        assert reopened.get("d1") == RECORD
        reopened.close()


class TestSchemaVersioning:
    def test_version_mismatch_is_a_miss(self, tmp_path):
        """An entry written by a different schema version is never
        deserialized — it reads as a miss and the job re-runs."""
        path = str(tmp_path / "results.jsonl")
        store = JsonlStore(path)
        store.put("d1", SPEC, RECORD)
        store.close()
        # Simulate a stale entry from an older build.
        entry = {
            "digest": "old", "schema_version": SCHEMA_VERSION - 1,
            "spec": SPEC, "record": {"bench": "stale"}, "created_at": 0.0,
        }
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(entry) + "\n")
        reopened = JsonlStore(path)
        assert reopened.get("old") is None
        assert reopened.get("d1") == RECORD
        assert reopened.stats()["misses"] == 1
        reopened.close()


class TestOpenStore:
    def test_open_store_dispatch(self, tmp_path):
        assert isinstance(open_store(None), MemoryStore)
        assert isinstance(open_store(":memory:"), MemoryStore)
        assert isinstance(open_store(str(tmp_path / "a.jsonl")), JsonlStore)
        assert isinstance(open_store(str(tmp_path / "a.sqlite")), SqliteStore)
        assert isinstance(open_store(str(tmp_path / "a.db")), SqliteStore)

    def test_open_store_accepts_a_path(self, tmp_path):
        """A pathlib.Path target dispatches on its suffix like a str."""
        sqlite = open_store(tmp_path / "c.sqlite")
        jsonl = open_store(tmp_path / "c.jsonl")
        assert isinstance(sqlite, SqliteStore)
        assert isinstance(jsonl, JsonlStore)
        sqlite.close()
        jsonl.close()

    def test_client_closes_the_store_it_opened_from_a_path(self, tmp_path):
        with ServiceClient(store=tmp_path / "c.sqlite",
                           executor="inline") as client:
            store = client.store
            assert isinstance(store, SqliteStore)
        with pytest.raises(sqlite3.ProgrammingError):
            store._db.execute("SELECT 1")

    def test_client_leaves_a_passed_store_open(self, tmp_path):
        store = SqliteStore(str(tmp_path / "c.sqlite"))
        with ServiceClient(store=store, executor="inline"):
            pass
        store._db.execute("SELECT 1")
        store.close()

    def test_open_store_passthrough(self):
        store = MemoryStore()
        assert open_store(store) is store

    def test_base_store_is_memory_only(self):
        with pytest.raises(TypeError):
            ResultStore("no-positional-args")
