"""Smoke tests for the ``python -m repro.experiments`` CLI."""

import json

import pytest

from repro.experiments.__main__ import main


def test_cli_fig10_only(tmp_path, capsys):
    rc = main([
        "--profile", "mini", "--reps", "1",
        "--out", str(tmp_path), "--skip-sweep",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Fig. 10" in out
    assert (tmp_path / "fig10.csv").exists()
    header = (tmp_path / "fig10.csv").read_text().splitlines()[0]
    assert header.startswith("bench,policy")


def test_tune_metrics_out_survives_a_failed_search(tmp_path, monkeypatch):
    """The snapshot is written even when the search raises."""
    from repro.obs import metrics as obs_metrics
    from repro.obs.metrics import find_metric
    from repro.search import tune

    def failing_search(*args, **kwargs):
        obs_metrics.active().counter("search.evaluations", outcome="ok").inc()
        raise RuntimeError("search interrupted")

    monkeypatch.setattr(tune, "run_search", failing_search)
    path = tmp_path / "metrics.json"
    with pytest.raises(RuntimeError, match="search interrupted"):
        tune.main(["--bench", "lbm", "--profile", "mini", "--budget", "4",
                   "--out", str(tmp_path / "out"), "--metrics-out", str(path)])
    snapshot = json.loads(path.read_text())
    assert find_metric(snapshot, "counters", "search.evaluations",
                       outcome="ok")["value"] == 1
    assert obs_metrics.active() is None
