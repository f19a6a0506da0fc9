"""Presentation-layer smoke tests on a real (tiny) sweep.

The figure/report helpers were previously exercised only on hand-built
fake records; these tests run an actual mini-profile sweep end to end
and prove the presentation layer renders from it: every figure produces
non-empty ASCII output, CSV round-trips, and the generated claims table
names every claim ID the evaluators produce.
"""

from __future__ import annotations

import csv

import pytest

from repro.alloc.policies import Policy
from repro.experiments.claims import (
    evaluate_fig10_claims,
    evaluate_main_claims,
)
from repro.experiments.figures import (
    FIG10_POLICIES,
    MAIN_POLICIES,
    fig10,
    fig11,
    fig12,
    fig13,
    fig14,
)
from repro.experiments.report import claims_table, write_csv
from repro.experiments.runner import run_synthetic, sweep

CONFIG = "4_threads_4_nodes"


@pytest.fixture(scope="module")
def tiny_sweep():
    """One real mini-profile sweep shared by every smoke test."""
    return sweep(
        benches=["lbm"], policies=list(Policy), configs=[CONFIG],
        reps=1, profile="mini", seed=7,
    )


@pytest.fixture(scope="module")
def fig10_records():
    return [
        run_synthetic(policy, CONFIG, rep=0, profile="mini")
        for policy in FIG10_POLICIES
    ]


class TestFiguresRender:
    def test_fig10_renders(self, fig10_records):
        text = fig10(fig10_records).render()
        assert "Fig. 10" in text
        for policy in FIG10_POLICIES:
            assert policy.label in text

    def test_fig11_and_fig12_render(self, tiny_sweep):
        for fig in (fig11(tiny_sweep), fig12(tiny_sweep)):
            text = fig.render(CONFIG)
            assert text.strip()
            assert "lbm" in text

    def test_fig13_and_fig14_render(self, tiny_sweep):
        for fig in (fig13(tiny_sweep, CONFIG), fig14(tiny_sweep, CONFIG)):
            text = fig.render("lbm")
            assert text.strip()
            assert "t0" in text  # per-thread rows

    def test_main_policy_bars_present_in_fig11(self, tiny_sweep):
        # Fig. 11 plots the main bar set plus a computed best-other row,
        # not every policy in the sweep.
        fig = fig11(tiny_sweep)
        text = fig.render(CONFIG)
        for policy in MAIN_POLICIES:
            assert policy.label in text
        assert "best-other (" in text


class TestReportSmoke:
    def test_csv_roundtrip_preserves_aggregates(self, tiny_sweep, tmp_path):
        path = str(tmp_path / "sweep.csv")
        write_csv(tiny_sweep, path)
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
        assert reader.fieldnames[:5] == [
            "bench", "policy", "config", "rep", "runtime",
        ]
        assert len(rows) == len(tiny_sweep)
        for orig, row in zip(tiny_sweep, rows):
            assert row["bench"] == orig.bench
            assert row["policy"] == orig.policy
            assert float(row["runtime"]) == pytest.approx(orig.runtime)
            assert int(row["dram_accesses"]) == orig.dram_accesses

    def test_claims_table_contains_every_claim_id(
        self, tiny_sweep, fig10_records
    ):
        claims = (
            evaluate_main_claims(tiny_sweep)
            + evaluate_fig10_claims(fig10_records)
        )
        assert claims, "tiny sweep produced no evaluable claims"
        text = claims_table(claims)
        for claim in claims:
            assert claim.claim_id in text
        # Table shape: header + separator + one row per claim.
        assert len(text.splitlines()) == 2 + len(claims)
