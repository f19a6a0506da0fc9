"""Unit tests for the claims evaluator and EXPERIMENTS.md generator."""

import csv

import pytest

from repro.experiments.claims import (
    all_hold,
    evaluate_fig10_claims,
    evaluate_main_claims,
)
from repro.experiments.experiments_md import write_experiments_md
from repro.experiments.report import write_csv
from repro.experiments.runner import RunRecord


def record(bench, policy, runtime, idle=None, config="16_threads_4_nodes",
           threads=16, spread=0.2):
    idle = idle if idle is not None else runtime / 10
    per = runtime / threads
    rts = tuple(
        per * (1 + spread * i / max(1, threads - 1)) for i in range(threads)
    )
    return RunRecord(
        bench=bench, policy=policy, config=config, rep=0,
        runtime=runtime, parallel_runtime=runtime * 0.9,
        serial_runtime=runtime * 0.1, total_idle=idle,
        thread_runtimes=rts,
        thread_idles=tuple(idle / threads * (threads - i) for i in range(threads)),
        remote_fraction=0.1, row_hit_rate=0.5, row_conflicts=1,
        llc_miss_rate=0.5, dram_accesses=100, faults=5,
    )


def paper_shaped_records():
    """A synthetic record set in which every paper claim holds."""
    out = []
    for bench in ("lbm", "art", "equake", "bodytrack", "freqmine",
                  "blackscholes"):
        out += [
            record(bench, "buddy", 100.0, idle=40.0, spread=0.5),
            record(bench, "bpm", 140.0, idle=80.0, spread=0.6),
            record(bench, "mem", 80.0, idle=20.0, spread=0.1),
            record(bench, "llc", 85.0, idle=22.0, spread=0.1),
            record(bench, "mem+llc", 72.0, idle=12.0, spread=0.1),
            record(bench, "mem+llc(part)", 74.0, idle=13.0, spread=0.1),
            record(bench, "llc+mem(part)", 76.0, idle=14.0, spread=0.1),
        ]
    # blackscholes: tiny win, (part) variant best.
    out = [r for r in out if r.bench != "blackscholes" or r.policy == "buddy"]
    out += [
        record("blackscholes", p, rt)
        for p, rt in (("bpm", 103.0), ("mem", 100.0), ("llc", 100.5),
                      ("mem+llc", 99.5), ("mem+llc(part)", 97.0),
                      ("llc+mem(part)", 99.0))
    ]
    # freqmine: part beats full.
    out = [r for r in out if r.bench != "freqmine"]
    out += [
        record("freqmine", p, rt)
        for p, rt in (("buddy", 100.0), ("bpm", 150.0), ("mem", 99.0),
                      ("llc", 102.0), ("mem+llc", 100.0),
                      ("mem+llc(part)", 98.0), ("llc+mem(part)", 97.0))
    ]
    # second config with a smaller gain for the cross-config claim.
    out += [
        record("lbm", "buddy", 100.0, config="4_threads_4_nodes", threads=4),
        record("lbm", "mem+llc", 98.0, config="4_threads_4_nodes", threads=4),
    ]
    return out


class TestMainClaims:
    def test_paper_shaped_records_all_hold(self):
        claims = evaluate_main_claims(paper_shaped_records())
        assert len(claims) >= 10
        failing = [c.claim_id for c in claims if not c.holds]
        assert not failing, failing
        assert all_hold(claims)

    def test_anti_shaped_records_fail(self):
        """If coloring LOSES, the claims must report it."""
        records = [
            record("lbm", "buddy", 100.0, idle=10.0),
            record("lbm", "bpm", 90.0),
            record("lbm", "mem+llc", 130.0, idle=40.0),
            record("lbm", "mem", 120.0),
            record("lbm", "llc", 125.0),
            record("lbm", "mem+llc(part)", 122.0),
            record("lbm", "llc+mem(part)", 121.0),
        ]
        claims = evaluate_main_claims(records)
        assert not all_hold(claims)
        by_id = {c.claim_id: c for c in claims}
        assert not by_id["fig11/lbm-runtime-reduction"].holds
        assert not by_id["fig11/lbm-bpm-loses-to-tintmalloc"].holds

    def test_missing_benchmarks_are_skipped(self):
        claims = evaluate_main_claims([
            record("lbm", "buddy", 100.0),
            record("lbm", "mem+llc", 70.0),
        ])
        ids = {c.claim_id for c in claims}
        assert "fig11/lbm-runtime-reduction" in ids
        assert not any("blackscholes" in i for i in ids)


class TestFig10Claims:
    def test_reduction_claim(self):
        records = [
            record("synthetic", p, rt)
            for p, rt in (("buddy", 100.0), ("llc", 92.0), ("mem", 88.0),
                          ("mem+llc", 84.0))
        ]
        claims = evaluate_fig10_claims(records)
        assert all_hold(claims)
        red = next(c for c in claims if c.claim_id == "fig10/memllc-reduction")
        assert red.measured == pytest.approx(0.16)


class TestExperimentsMd:
    def test_file_structure(self, tmp_path):
        fig10_records = [
            record("synthetic", p, rt)
            for p, rt in (("buddy", 100.0), ("llc", 92.0), ("mem", 88.0),
                          ("mem+llc", 84.0))
        ]
        path = tmp_path / "EXPERIMENTS.md"
        write_experiments_md(
            str(path), fig10_records, paper_shaped_records(),
            profile="test", reps=1,
            configs=["16_threads_4_nodes", "4_threads_4_nodes"],
        )
        text = path.read_text()
        assert "# EXPERIMENTS" in text
        assert "claims hold" in text
        assert "Fig. 10" in text and "Fig. 14" in text
        assert "| fig11/lbm-runtime-reduction |" in text


class TestCsvRoundtrip:
    def test_read_back(self, tmp_path):
        records = [record("lbm", "buddy", 123.0)]
        path = tmp_path / "r.csv"
        write_csv(records, str(path))
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
        assert reader.fieldnames == [
            "bench", "policy", "config", "rep", "runtime", "parallel_runtime",
            "serial_runtime", "total_idle", "remote_fraction", "row_hit_rate",
            "row_conflicts", "llc_miss_rate", "dram_accesses", "faults",
        ]
        assert len(rows) == 1
        assert rows[0]["bench"] == "lbm"
        assert rows[0]["policy"] == "buddy"
        assert float(rows[0]["runtime"]) == pytest.approx(123.0)
        assert rows[0]["faults"] == "5"
