"""``python -m repro.service``: the CLI commands, driven in-process."""

from __future__ import annotations

import json

from repro.service.__main__ import main

SYNTHETIC = ["--kind", "synthetic", "--bench", "synthetic", "--policy",
             "buddy", "--profile", "mini", "--executor", "inline"]


def test_demo_reports_full_second_pass_reuse(capsys):
    assert main(["demo", "--benches", "lbm", "--executor", "inline",
                 "--workers", "1"]) == 0
    out = capsys.readouterr().out
    assert "2/2 cache hits (100%)" in out
    assert "demo ok" in out


def test_local_submit_caches_and_status_reads_the_store(tmp_path, capsys):
    store = str(tmp_path / "runs.jsonl")
    assert main(["submit", *SYNTHETIC, "--store", store]) == 0
    first = json.loads(capsys.readouterr().out)
    assert main(["submit", *SYNTHETIC, "--store", store]) == 0
    second = json.loads(capsys.readouterr().out)
    assert (first["from_cache"], second["from_cache"]) == (False, True)
    assert second["record"] == first["record"]
    assert main(["status", "--store", store]) == 0
    assert json.loads(capsys.readouterr().out)["store"]["entries"] == 1
