"""``python -m repro.service``: the CLI commands, driven in-process."""

from __future__ import annotations

import json
import re
import threading
import time

import pytest

from repro.service.__main__ import main
from repro.service.server import request_sync

SYNTHETIC = ["--kind", "synthetic", "--bench", "synthetic", "--policy",
             "buddy", "--profile", "mini", "--executor", "inline"]


@pytest.fixture
def server(capsys):
    """``serve`` running on a background thread; yields HOST:PORT."""
    thread = threading.Thread(
        target=main, daemon=True,
        args=(["serve", "--port", "0", "--executor", "inline"],),
    )
    thread.start()
    banner = ""
    deadline = time.monotonic() + 30
    while "listening on" not in banner:
        assert time.monotonic() < deadline, "server did not start"
        time.sleep(0.01)
        banner += capsys.readouterr().out
    address = re.search(r"listening on (\S+:\d+)", banner).group(1)
    yield address
    host, _, port = address.rpartition(":")
    request_sync(host, int(port), {"op": "shutdown"})
    thread.join(10)
    assert not thread.is_alive()


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


def test_connect_submit_status_and_drain(server, capsys):
    assert main(["submit", *SYNTHETIC, "--connect", server]) == 0
    response = json.loads(capsys.readouterr().out)
    assert response["record"]["policy"] == "buddy"
    assert main(["status", "--connect", server]) == 0
    stats = json.loads(capsys.readouterr().out)["stats"]
    assert stats["completed"] == 1
    assert main(["drain", "--connect", server, "--timeout", "10"]) == 0
