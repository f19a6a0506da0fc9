"""Result store: round trips, persistence, schema versioning."""

from __future__ import annotations

import json
import sqlite3

import pytest

from repro.service import ResultStore, ServiceClient, open_store
from repro.sim.metrics import SCHEMA_VERSION

SPEC = {"bench": "lbm", "policy": "mem+llc"}
RECORD = {"schema_version": SCHEMA_VERSION, "bench": "lbm", "runtime": 1.5}


def _backends(tmp_path):
    return [ResultStore(), ResultStore(str(tmp_path / "results.sqlite"))]


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

    def test_in_memory_store_writes_no_file(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        store = ResultStore()
        store.put("d1", SPEC, RECORD)
        store.put("d2", SPEC, {**RECORD, "runtime": 2.0})
        assert store.get("d1") == RECORD
        assert store.get("d2")["runtime"] == 2.0
        assert store.path == ":memory:"
        store.close()
        assert list(tmp_path.iterdir()) == []


class TestPersistence:
    def test_sqlite_skips_a_corrupt_payload(self, tmp_path):
        path = str(tmp_path / "results.sqlite")
        store = ResultStore(path)
        store.put("d1", SPEC, RECORD)
        store._db.execute(
            "INSERT INTO results VALUES ('d2', ?, '{not json')",
            (SCHEMA_VERSION,),
        )
        store._db.commit()
        store.close()
        reopened = ResultStore(path)
        assert reopened.get("d1") == RECORD
        assert reopened.get("d2") is None
        reopened.close()

    def test_sqlite_survives_reopen(self, tmp_path):
        path = str(tmp_path / "results.sqlite")
        store = ResultStore(path)
        store.put("d1", SPEC, RECORD)
        store.close()
        reopened = ResultStore(path)
        assert reopened.get("d1") == RECORD
        reopened.close()


class TestSchemaVersioning:
    def test_version_mismatch_is_a_miss(self, tmp_path):
        """An entry written by a different schema version is never
        deserialized — it reads as a miss and the job re-runs."""
        path = str(tmp_path / "results.sqlite")
        store = ResultStore(path)
        store.put("d1", SPEC, RECORD)
        # Simulate a stale row from an older build.
        stale = json.dumps({
            "digest": "old", "schema_version": SCHEMA_VERSION - 1,
            "spec": SPEC, "record": {"bench": "stale"}, "created_at": 0.0,
        })
        store._db.execute(
            "INSERT INTO results VALUES ('old', ?, ?)",
            (SCHEMA_VERSION - 1, stale),
        )
        store._db.commit()
        store.close()
        reopened = ResultStore(path)
        assert "old" in reopened
        assert reopened.get("old") is None
        assert reopened.get("d1") == RECORD
        assert reopened.stats()["misses"] == 1
        reopened.close()


class TestOpenStore:
    def test_open_store_dispatch(self, tmp_path):
        for target in (None, ":memory:"):
            store = open_store(target)
            assert isinstance(store, ResultStore) and store.path == ":memory:"
        for name in ("a.sqlite", "a.sqlite3", "a.db"):
            store = open_store(str(tmp_path / name))
            store.put("d1", SPEC, RECORD)
            store.close()
            assert (tmp_path / name).is_file()

    def test_open_store_rejects_other_suffixes(self, tmp_path):
        """An old JSONL store is refused by name, not opened as SQLite."""
        path = tmp_path / "x.jsonl"
        path.write_text('{"digest": "d1"}\n')
        with pytest.raises(ValueError) as err:
            open_store(path)
        message = str(err.value)
        assert "\n" not in message
        assert ".sqlite, .sqlite3, .db" in message
        assert path.read_text() == '{"digest": "d1"}\n'
        assert list(tmp_path.iterdir()) == [path]

    def test_store_rejects_an_unknown_suffix(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ValueError):
            ResultStore("no-suffix")
        assert list(tmp_path.iterdir()) == []

    def test_open_store_accepts_a_path(self, tmp_path):
        """A pathlib.Path target opens like a str."""
        store = open_store(tmp_path / "c.sqlite")
        assert store.path == str(tmp_path / "c.sqlite")
        store.close()

    def test_client_closes_the_store_it_opened_from_a_path(self, tmp_path):
        with ServiceClient(store=tmp_path / "c.sqlite",
                           executor="inline") as client:
            store = client.store
            assert isinstance(store, ResultStore)
        with pytest.raises(sqlite3.ProgrammingError):
            store._db.execute("SELECT 1")

    @pytest.mark.parametrize("name, kwargs, match", [
        ("x.sqlite", {"shards": 0}, "shards must be >= 1"),
        ("y.sqlite", {"executor": "fleet"}, "unknown executor 'fleet'"),
    ], ids=["shards", "executor"])
    def test_bad_client_arguments_open_no_store(self, tmp_path, name,
                                                kwargs, match):
        """Arguments are checked before the store path is opened, so a
        rejected client leaves no file behind."""
        with pytest.raises(ValueError, match=match):
            ServiceClient(store=tmp_path / name, **kwargs)
        assert list(tmp_path.iterdir()) == []

    def test_client_leaves_a_passed_store_open(self, tmp_path):
        store = ResultStore(str(tmp_path / "c.sqlite"))
        with ServiceClient(store=store, executor="inline"):
            pass
        store._db.execute("SELECT 1")
        store.close()

    def test_open_store_passthrough(self):
        store = ResultStore()
        assert open_store(store) is store
