"""Fuzz driver tests: determinism, shrinking, the CLI, and the loop."""

from __future__ import annotations

import dataclasses
import importlib.util
from pathlib import Path

import pytest

import repro.sanitize.fuzz as fuzz_mod
from repro.sanitize import SanitizeViolation
from repro.sanitize.fuzz import (
    FuzzCase,
    fuzz,
    repro_snippet,
    run_case,
    shrink_case,
)

TOOLS = Path(__file__).parent.parent / "tools"


def _load_cli():
    spec = importlib.util.spec_from_file_location(
        "fuzz_sim", TOOLS / "fuzz_sim.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestFuzzCase:
    def test_generation_is_seed_deterministic(self):
        assert FuzzCase.generate(5) == FuzzCase.generate(5)
        assert FuzzCase.generate(5) != FuzzCase.generate(6)

    def test_generated_fields_in_range(self):
        for seed in range(20):
            case = FuzzCase.generate(seed)
            assert case.memory_mib in (4, 8, 16)
            assert case.policy in fuzz_mod.FUZZ_POLICIES
            assert 1 <= case.nthreads <= 4
            assert 1 <= case.rounds <= 3
            assert case.region_kib in (4, 8, 16, 32)

    def test_run_case_clean(self):
        run_case(FuzzCase.generate(123), level="full", check_every=64)

    def test_run_case_reproducible(self):
        # Same case twice: both complete without violation (determinism
        # of the violation *path* is exercised via shrinking below).
        case = FuzzCase.generate(7)
        run_case(case)
        run_case(case)

    def test_generator_draws_every_preset_family(self):
        drawn = {FuzzCase.generate(seed).preset for seed in range(40)}
        assert drawn <= set(fuzz_mod.FUZZ_PRESETS)
        assert len(drawn) >= 2  # not stuck on one machine

    @pytest.mark.parametrize("preset", sorted(fuzz_mod.FUZZ_PRESETS))
    def test_run_case_clean_on_every_preset(self, preset):
        case = dataclasses.replace(
            FuzzCase(seed=31, nthreads=2, rounds=1,
                     accesses_per_thread=200), preset=preset,
        )
        run_case(case, level="full", check_every=32)

    def test_disagg_preset_exercises_the_remote_tier(self):
        machine = fuzz_mod.FUZZ_PRESETS["tiny_disagg"](8 * 1024 * 1024)
        assert machine.remote is not None
        assert machine.remote.remote_nodes == (1,)


class TestShrinking:
    def test_shrinks_towards_minimum(self):
        case = FuzzCase(seed=1, nthreads=4, rounds=3,
                        accesses_per_thread=1200, regions_per_thread=3,
                        region_kib=32, with_serial=True)
        # Pretend the violation needs >= 2 threads and >= 300 accesses.
        def reproduces(c):
            return c.nthreads >= 2 and c.accesses_per_thread >= 300

        shrunk = shrink_case(case, reproduces)
        assert reproduces(shrunk)
        assert shrunk.nthreads == 2
        assert shrunk.accesses_per_thread == 300
        assert shrunk.rounds == 1
        assert shrunk.regions_per_thread == 1
        assert shrunk.region_kib == 4
        assert not shrunk.with_serial

    def test_shrink_reduces_non_opteron_preset_to_tiny(self):
        # A violation that reproduces anywhere shrinks back to "tiny".
        case = FuzzCase(seed=3, preset="tiny_robacoch")
        shrunk = shrink_case(case, lambda c: True)
        assert shrunk.preset == "tiny"

    def test_shrink_keeps_preset_the_violation_needs(self):
        # A remote-tier-only violation must keep its disaggregated preset.
        case = FuzzCase(seed=3, nthreads=4, rounds=3, preset="tiny_disagg")
        shrunk = shrink_case(case, lambda c: c.preset == "tiny_disagg")
        assert shrunk.preset == "tiny_disagg"
        assert shrunk.rounds == 1 and shrunk.nthreads == 1

    def test_shrink_keeps_original_when_nothing_smaller_fails(self):
        case = FuzzCase(seed=1, nthreads=1, rounds=1, regions_per_thread=1,
                        region_kib=4, accesses_per_thread=50,
                        with_serial=False)
        shrunk = shrink_case(case, lambda c: True)
        assert shrunk == case

    def test_shrink_steps_one_round_when_halving_loses_it(self):
        case = FuzzCase(seed=1, nthreads=1, rounds=4, regions_per_thread=1,
                        region_kib=4, accesses_per_thread=50,
                        with_serial=False)
        shrunk = shrink_case(case, lambda c: c.rounds >= 3)
        assert shrunk.rounds == 3

    def test_shrink_stops_after_max_steps(self):
        case = FuzzCase(seed=1, nthreads=4, rounds=4)
        tried = []

        def never(c):
            tried.append(c)
            return False

        assert shrink_case(case, never, max_steps=2) == case
        assert len(tried) == 2

    def test_repro_snippet_replays_the_case(self):
        case = FuzzCase.generate(9)
        snippet = repro_snippet(case, "full", 64)
        assert "run_case" in snippet and repr(case) in snippet
        # The snippet must be directly runnable python.
        exec(compile(snippet, "<repro>", "exec"), {})


class TestFuzzLoop:
    def test_bounded_by_max_cases(self):
        result = fuzz(budget_s=600.0, seed=11, max_cases=3, check_every=64)
        assert result.cases_run == 3
        assert result.ok

    def test_progress_callback_sees_every_case(self):
        seen = []
        fuzz(budget_s=600.0, seed=2, max_cases=2,
             on_case=lambda i, c: seen.append((i, c.seed)))
        assert [i for i, _ in seen] == [0, 1]

    def test_violation_is_shrunk_and_reported(self, monkeypatch):
        # Stub the runner: any case with > 1 round or > 1 thread "fails".
        def fake_run_case(case, level="full", check_every=64):
            if case.rounds > 1 or case.nthreads > 1:
                raise SanitizeViolation("dram", "bank-busy-rewind", "injected")

        monkeypatch.setattr(fuzz_mod, "run_case", fake_run_case)
        result = fuzz_mod.fuzz(budget_s=600.0, seed=0, max_cases=50)
        assert not result.ok
        failure = result.failure
        assert failure.case.rounds > 1 or failure.case.nthreads > 1
        # Shrunk to the boundary of the failure condition.
        assert failure.shrunk.rounds <= 2 and failure.shrunk.nthreads <= 2
        assert "bank-busy-rewind" in failure.violation
        assert "run_case" in failure.snippet

    def test_shrink_candidates_that_run_out_of_memory_do_not_reproduce(
        self, monkeypatch,
    ):
        from repro.kernel.kernel import OutOfMemory

        def fake_run_case(case, level="full", check_every=64):
            if case.rounds > 1:
                raise SanitizeViolation("kernel", "owner-stale", "injected")
            raise OutOfMemory("smaller cases exhaust memory")

        monkeypatch.setattr(fuzz_mod, "run_case", fake_run_case)
        result = fuzz_mod.fuzz(budget_s=600.0, seed=0, max_cases=50)
        assert result.failure.shrunk.rounds == 2

    def test_out_of_memory_cases_are_skipped(self, monkeypatch):
        from repro.kernel.kernel import OutOfColoredMemory

        calls = {"n": 0}

        def fake_run_case(case, level="full", check_every=64):
            calls["n"] += 1
            raise OutOfColoredMemory("no frames of color (0, 0)")

        monkeypatch.setattr(fuzz_mod, "run_case", fake_run_case)
        result = fuzz_mod.fuzz(budget_s=600.0, seed=0, max_cases=4)
        assert result.ok and calls["n"] == 4


class TestCli:
    def test_parse_budget_forms(self):
        cli = _load_cli()
        assert cli.parse_budget("30") == 30.0
        assert cli.parse_budget("120s") == 120.0
        assert cli.parse_budget("2m") == 120.0
        with pytest.raises(Exception):
            cli.parse_budget("abc")
        with pytest.raises(Exception):
            cli.parse_budget("-5")

    def test_main_runs_and_exits_zero(self, capsys):
        cli = _load_cli()
        rc = cli.main(["--budget", "60s", "--max-cases", "2", "--seed", "4"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "ran 2 cases" in out
        assert "no invariant violations" in out

    def test_main_reports_failure_with_repro(self, capsys, monkeypatch):
        cli = _load_cli()

        def fake_fuzz(**kwargs):
            case = FuzzCase(seed=1)
            return fuzz_mod.FuzzResult(
                cases_run=1, elapsed_s=0.1,
                failure=fuzz_mod.FuzzFailure(
                    case=case, shrunk=dataclasses.replace(case, rounds=1),
                    violation="[dram] bank-busy-rewind: injected",
                    snippet=repro_snippet(case, "full", 64),
                ),
            )

        monkeypatch.setattr(cli, "fuzz", fake_fuzz)
        rc = cli.main(["--budget", "1s"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "INVARIANT VIOLATION" in out
        assert "run_case" in out
