"""Smoke tests for the ``python -m repro.experiments`` CLI."""

import json
import sys

import pytest

from repro.experiments.__main__ import main


def test_cli_fig10_only(tmp_path, capsys):
    rc = main([
        "--profile", "mini", "--reps", "1",
        "--out", str(tmp_path), "--skip-sweep",
        "--trace-out", str(tmp_path / "traces"),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Fig. 10" in out
    # --trace-out: one Perfetto bundle per Fig. 10 run.
    assert f"trace: {tmp_path / 'traces' / 'synthetic_buddy_rep0'}" in out
    assert (tmp_path / "fig10.csv").exists()
    header = (tmp_path / "fig10.csv").read_text().splitlines()[0]
    assert header.startswith("bench,policy")


def test_cache_with_another_suffix_fails_before_any_run(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--profile", "mini", "--out", str(tmp_path / "out"),
              "--cache", str(tmp_path / "old.jsonl")])
    assert exc.value.code == 2
    assert "--cache must end in .sqlite, .sqlite3, .db" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_tune_cache_with_another_suffix_fails_before_any_search(
    tmp_path, capsys
):
    """One line on stderr, exit 2, nothing written: no traceback from
    the store opening the path mid-search."""
    with pytest.raises(SystemExit) as exc:
        main(["tune", "--profile", "mini", "--budget", "4",
              "--out", str(tmp_path / "out"),
              "--metrics-out", str(tmp_path / "m.json"),
              "--cache", str(tmp_path / "old.jsonl")])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1
    assert "--cache must end in .sqlite, .sqlite3, .db" in err
    assert list(tmp_path.iterdir()) == []


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


def test_main_reads_sys_argv(monkeypatch, capsys):
    """``python -m repro.experiments`` calls ``main()`` without argv."""
    monkeypatch.setattr(sys, "argv", ["repro.experiments", "--profile", "bogus"])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err


def test_tune_provenance_without_git(tmp_path, monkeypatch):
    """A host without git records the commit as 'unknown'."""
    from repro.search import tune

    monkeypatch.setenv("PATH", str(tmp_path))
    assert tune._git_commit() == "unknown"


def test_cli_full_sweep_mini(tmp_path, capsys):
    """The whole sweep path: an armed (empty) fault plan, Figs. 10-14,
    the sweep CSV, the EXPERIMENTS.md ledger and a metrics snapshot."""
    from repro.obs import metrics as obs_metrics

    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"seed": 3, "rules": []}))
    ledger = tmp_path / "EXPERIMENTS.md"
    snapshot = tmp_path / "metrics.json"
    rc = main([
        "--profile", "mini", "--reps", "1",
        "--configs", "4_threads_1_nodes", "--out", str(tmp_path),
        "--faultline", str(plan), "--experiments-md", str(ledger),
        "--metrics-out", str(snapshot),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "faultline: armed plan seed=3 rules=0" in out
    assert "== main sweep:" in out
    assert f"wrote {ledger}" in out
    rows = (tmp_path / "main_sweep.csv").read_text().splitlines()
    assert rows[0].startswith("bench,policy") and len(rows) > 1
    assert ledger.read_text().startswith("#")
    assert "counters" in json.loads(snapshot.read_text())
    assert obs_metrics.active() is None


def test_tune_appends_bench_entries_and_flags_an_empty_front(
    tmp_path, monkeypatch, capsys,
):
    """``--update-bench`` creates then extends the trajectory file, and a
    search whose front is empty exits 1 with a warning."""
    from repro.search import tune
    from repro.search.drivers import EvalResult, SearchOutcome

    def empty_search(settings, **kwargs):
        baseline = EvalResult("d", "mem+llc", 3, "ok", runtime=1.0,
                              divergence=0.1, max_slowdown=1.0)
        return SearchOutcome(settings=settings, driver="evolution",
                             baselines={"mem+llc": baseline})

    monkeypatch.setattr(tune, "run_search", empty_search)
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"seed": 5, "rules": []}))
    bench = tmp_path / "BENCH_search.json"
    argv = ["--bench", "lbm", "--profile", "mini", "--budget", "4",
            "--out", str(tmp_path / "out"), "--update-bench", str(bench),
            "--faultline", str(plan)]
    assert tune.main(argv) == 1
    assert tune.main(argv) == 1
    out = capsys.readouterr().out
    assert "faultline: armed plan seed=5 rules=0" in out
    assert "warning: empty Pareto front" in out
    doc = json.loads(bench.read_text())
    assert doc["benchmark"] == "policy_search"
    entries = doc["trajectory"]
    assert len(entries) == 2
    assert entries[0]["evaluations"] == 0 and entries[0]["front"] == []
    assert entries[0]["verdicts"] == {"mem+llc": "dominated"}
    assert entries[0]["baselines"]["mem+llc"]["runtime"] == 1.0


def _unfireable_plan(path):
    """A one-rule plan on a site the run below never reaches."""
    from repro.faultline import FaultPlan, FaultRule

    path.write_text(FaultPlan(seed=9, rules=(
        FaultRule(site="store.put.io"),)).dumps())
    return path


def test_faultline_plan_is_disarmed_when_main_returns(tmp_path, capsys):
    from repro.faultline import hooks

    plan = _unfireable_plan(tmp_path / "plan.json")
    assert main(["--profile", "mini", "--reps", "1", "--skip-sweep",
                 "--out", str(tmp_path / "out"),
                 "--faultline", str(plan)]) == 0
    assert "faultline: armed plan seed=9 rules=1" in capsys.readouterr().out
    assert hooks.active() is None


def test_tune_faultline_plan_is_disarmed_when_main_returns(
    tmp_path, monkeypatch, capsys,
):
    from repro.faultline import hooks
    from repro.search import tune
    from repro.search.drivers import SearchOutcome

    armed_during_search = []

    def no_search(settings, **kwargs):
        armed_during_search.append(hooks.active() is not None)
        return SearchOutcome(settings=settings, driver="evolution")

    monkeypatch.setattr(tune, "run_search", no_search)
    plan = _unfireable_plan(tmp_path / "plan.json")
    assert tune.main(["--bench", "lbm", "--profile", "mini",
                      "--out", str(tmp_path / "out"),
                      "--faultline", str(plan)]) == 1
    assert "faultline: armed plan seed=9 rules=1" in capsys.readouterr().out
    assert armed_during_search == [True]
    assert hooks.active() is None
