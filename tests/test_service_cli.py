"""``python -m repro.service``: the CLI commands, driven in-process."""

from __future__ import annotations

import json

import pytest

from repro.service.__main__ import main

SYNTHETIC = ["--kind", "synthetic", "--bench", "synthetic", "--policy",
             "buddy", "--profile", "mini", "--executor", "inline"]


def test_demo_reports_full_second_pass_reuse(capsys):
    assert main(["demo", "--benches", "lbm", "--executor", "inline",
                 "--workers", "1"]) == 0
    out = capsys.readouterr().out
    assert "2/2 cache hits (100%)" in out
    assert "demo ok" in out


def test_demo_fails_when_the_second_pass_is_not_served(monkeypatch, capsys):
    """A store that keeps nothing leaves the second pass to re-simulate:
    the demo's >= 95 % reuse gate fails it."""
    from repro.service.store import ResultStore

    monkeypatch.setattr(ResultStore, "put", lambda self, *args: None)
    assert main(["demo", "--benches", "lbm", "--executor", "inline",
                 "--workers", "1"]) == 1
    out, err = capsys.readouterr()
    assert "0/2 cache hits (0%)" in out
    assert "DEMO FAILED" in err


def test_local_submit_caches_and_status_reads_the_store(tmp_path, capsys):
    store = str(tmp_path / "runs.sqlite")
    assert main(["submit", *SYNTHETIC, "--store", store]) == 0
    first = json.loads(capsys.readouterr().out)
    assert main(["submit", *SYNTHETIC, "--store", store]) == 0
    second = json.loads(capsys.readouterr().out)
    assert (first["from_cache"], second["from_cache"]) == (False, True)
    assert second["record"] == first["record"]
    assert main(["status", "--store", store]) == 0
    assert json.loads(capsys.readouterr().out)["store"]["entries"] == 1


@pytest.mark.parametrize("name", ["typo.jsonl", "typo.sqlite"])
def test_status_on_a_missing_store_fails_and_creates_nothing(
    tmp_path, capsys, name
):
    path = tmp_path / "no-such-dir" / name
    assert main(["status", "--store", str(path)]) != 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and str(path) in captured.err
    assert not path.parent.exists()
    assert main(["status", "--store", str(tmp_path / name)]) != 0
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["demo", "submit"])
def test_store_with_another_suffix_fails_before_any_job(
    tmp_path, capsys, command
):
    """One line on stderr, exit 2, nothing written: no traceback from
    the store opening the path."""
    args = ["--executor", "inline"]
    if command == "submit":
        args = SYNTHETIC
    with pytest.raises(SystemExit) as exc:
        main([command, *args, "--store", str(tmp_path / "old.jsonl")])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1
    assert "--store must end in .sqlite, .sqlite3, .db" in err
    assert list(tmp_path.iterdir()) == []


def test_status_requires_a_store(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["status"])
    assert exc.value.code != 0
    assert "--store" in capsys.readouterr().err
