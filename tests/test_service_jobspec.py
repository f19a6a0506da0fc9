"""JobSpec identity: digest stability, round trips, sanitize survival."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.alloc.custom import CustomPolicy
from repro.alloc.planner import plan_colors
from repro.alloc.policies import Policy
from repro.experiments.configs import CONFIGS
from repro.experiments.runner import profile_machine, run_benchmark
from repro.search.space import SearchSpace
from repro.service import JobSpec


class TestDigest:
    def test_digest_is_stable_and_deterministic(self):
        a = JobSpec(bench="lbm", policy="mem+llc", seed=3)
        b = JobSpec(bench="lbm", policy="mem+llc", seed=3)
        assert a.digest() == b.digest()
        assert len(a.digest()) == 64  # sha256 hex

    @pytest.mark.parametrize("change", [
        {"bench": "freqmine"},
        {"policy": "buddy"},
        {"config": "4_threads_4_nodes"},
        {"rep": 1},
        {"profile": "mini"},
        {"seed": 4},
        {"sanitize": "full"},
        {"kind": "synthetic"},
    ])
    def test_identity_fields_change_digest(self, change):
        base = JobSpec(bench="lbm", policy="mem+llc", seed=3,
                       config="16_threads_4_nodes", profile="scaled")
        changed = JobSpec.from_json({**base.to_json(), **change})
        assert changed.digest() != base.digest()

    @pytest.mark.parametrize("change", [
        {"priority": 9},  # a field older specs carried; ignored on load
        {"timeout_s": 1.5},
        {"max_retries": 7},
        {"trace_dir": "/tmp/traces"},
        {"force_run": True},
    ])
    def test_execution_fields_do_not_change_digest(self, change):
        base = JobSpec(bench="lbm", policy="mem+llc", seed=3)
        changed = JobSpec.from_json({**base.to_json(), **change})
        assert changed.digest() == base.digest()

    def test_digest_covers_machine_fingerprint(self):
        """Profiles resolving to different machines digest differently
        even with every explicit field equal."""
        scaled = JobSpec(profile="scaled")
        mini = JobSpec(profile="mini")
        assert scaled.identity()["machine"] != mini.identity()["machine"]
        assert scaled.digest() != mini.digest()


class TestRoundTrip:
    def test_json_round_trip_through_wire_format(self):
        spec = JobSpec(bench="streamcluster", policy="llc+mem(part)",
                       config="8_threads_2_nodes", rep=2, profile="mini",
                       seed=11, sanitize="full", trace_dir="/tmp/t",
                       force_run=True, timeout_s=2.5,
                       max_retries=5)
        wire = json.dumps(spec.to_json())
        back = JobSpec.from_json(json.loads(wire))
        assert back == spec
        assert back.digest() == spec.digest()

    def test_older_spec_json_with_priority_keeps_its_digest(self):
        # Written by a build whose specs carried a ``priority`` execution
        # field: it loads with the field ignored, under the same digest.
        older = json.loads(
            '{"bench": "lbm", "config": "16_threads_4_nodes", '
            '"force_run": false, "kind": "bench", "max_retries": 2, '
            '"policy": "mem+llc", "priority": 7, "profile": "mini", '
            '"rep": 0, "sanitize": "off", "schema_version": 3, "seed": 3, '
            '"timeout_s": 5.0, "trace_dir": null}'
        )
        spec = JobSpec.from_json(older)
        assert "priority" not in spec.to_json()
        assert spec.timeout_s == 5.0
        assert spec.digest() == (
            "591f0cc4076bb6378c76c582ac1b37f2d02c291c5b19de8645e44ad56ffb940d"
        )

    def test_sanitize_level_survives_round_trip(self):
        """Satellite: --sanitize must survive the job-spec round trip so
        service workers arm the sanitizer like direct calls do."""
        for level in ("off", "cheap", "full"):
            spec = JobSpec(sanitize=level)
            assert JobSpec.from_json(spec.to_json()).sanitize == level

    def test_from_json_ignores_unknown_keys(self):
        data = JobSpec().to_json()
        data["added_in_a_future_version"] = 42
        assert JobSpec.from_json(data) == JobSpec()


class TestValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            JobSpec(kind="nonsense")
        with pytest.raises(ValueError, match="kind"):
            JobSpec.from_json({"kind": "sleep", "config": "80ms"})

    def test_unknown_sanitize_rejected(self):
        with pytest.raises(ValueError, match="sanitize"):
            JobSpec(kind="synthetic", bench="synthetic", profile="mini",
                    sanitize="bogus")

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError):
            JobSpec(profile="warp-speed")

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError):
            JobSpec(max_retries=-1)


class TestStructuredPolicy:
    """Satellite contract: JobSpec.policy accepts a structured policy
    dict (the search genome's phenotype) with lossless round-trip and
    digest-stable canonicalization; plain named strings keep working."""

    def _phenotype(self, **over) -> dict:
        doc = {
            "type": "custom",
            "name": "tuned:abc",
            "mem": [[3, 1], []],
            "llc": [[2], [0, 5]],
            "aged": False,
            "hugepages": True,
        }
        doc.update(over)
        return doc

    def test_dict_policy_accepted_and_canonicalized(self):
        spec = JobSpec(policy=self._phenotype())
        assert isinstance(spec.policy, dict)
        assert spec.policy["mem"][0] == [1, 3]  # sorted at construction
        assert spec.policy_label == "tuned:abc"
        assert "tuned:abc" in spec.label

    def test_equivalent_dicts_digest_identically(self):
        a = JobSpec(policy=self._phenotype(mem=[[3, 1], []]))
        b = JobSpec(policy=self._phenotype(mem=[[1, 3, 1], []]))
        assert a.digest() == b.digest()

    def test_dict_policy_changes_digest_vs_string(self):
        assert JobSpec(policy=self._phenotype()).digest() \
            != JobSpec(policy="mem+llc").digest()
        assert JobSpec(policy=self._phenotype()).digest() \
            != JobSpec(policy=self._phenotype(aged=True)).digest()

    def test_wire_round_trip_is_lossless(self):
        spec = JobSpec(policy=self._phenotype())
        wire = json.loads(json.dumps(spec.to_json()))
        back = JobSpec.from_json(wire)
        assert back.policy == spec.policy
        assert back.digest() == spec.digest()

    def test_named_policy_strings_still_work(self):
        spec = JobSpec(policy="mem+llc")
        assert spec.policy == "mem+llc"
        assert spec.policy_label == "mem+llc"
        back = JobSpec.from_json(json.loads(json.dumps(spec.to_json())))
        assert back.digest() == spec.digest()

    def test_malformed_policy_rejected(self):
        with pytest.raises(ValueError):
            JobSpec(policy={"type": "custom", "name": "x"})  # missing genes
        with pytest.raises(ValueError):
            JobSpec(policy=42)


class TestEvaluationDigest:
    """``digest()`` is the cache line of one (evaluation, label) pair;
    ``evaluation_digest()`` identifies the simulation, so a named policy
    and the structured twin that applies its planned colors share it."""

    CONFIG = "16_threads_4_nodes"

    def _named(self, policy: Policy, **kw) -> JobSpec:
        kw.setdefault("config", self.CONFIG)
        return JobSpec(bench="lbm", policy=policy.value, profile="mini", **kw)

    def _twin(self, policy: Policy, **kw) -> JobSpec:
        kw.setdefault("config", self.CONFIG)
        genome = SearchSpace(kw["config"], "mini").paper_genome(policy)
        return JobSpec(bench="lbm", policy=genome.phenotype(), profile="mini",
                       **kw)

    @pytest.mark.parametrize("config,policy", [
        ("16_threads_4_nodes", Policy.BUDDY),
        ("16_threads_4_nodes", Policy.MEM_LLC),
        ("8_threads_2_nodes", Policy.LLC_MEM_PART),
    ])
    def test_named_run_equals_run_of_its_planned_phenotype(self, config,
                                                           policy):
        # The premise twin reuse rests on: after planning, a run reads
        # its policy only through the aged/hugepages flags and the label.
        machine = profile_machine("mini")
        twin = CustomPolicy(
            name="twin",
            assignments=tuple(plan_colors(
                policy, list(CONFIGS[config].cores),
                machine.mapping, machine.topology,
            )),
        )
        named = run_benchmark("lbm", policy, config, rep=1, seed=2,
                              profile="mini")
        planned = run_benchmark("lbm", twin, config, rep=1, seed=2,
                                profile="mini")
        assert planned.policy == "twin"
        assert dataclasses.replace(planned, policy=named.policy) == named

    @pytest.mark.parametrize("policy", [Policy.BUDDY, Policy.MEM_LLC])
    def test_paper_genome_shares_evaluation_digest(self, policy):
        named, twin = self._named(policy), self._twin(policy)
        assert twin.evaluation_digest() == named.evaluation_digest()
        assert twin.digest() != named.digest()

    def test_distinct_plans_keep_distinct_evaluation_digests(self):
        assert self._named(Policy.BUDDY).evaluation_digest() \
            != self._named(Policy.MEM_LLC).evaluation_digest()

    @pytest.mark.parametrize("change", [
        {"rep": 1},
        {"seed": 4},
        {"sanitize": "cheap"},
        {"profile": "scaled"},
    ])
    def test_identity_fields_change_evaluation_digest(self, change):
        for spec in (self._named(Policy.MEM_LLC), self._twin(Policy.MEM_LLC)):
            changed = JobSpec.from_json({**spec.to_json(), **change})
            assert changed.evaluation_digest() != spec.evaluation_digest()

    @pytest.mark.parametrize("flag", ["aged", "hugepages"])
    def test_allocator_flags_change_evaluation_digest(self, flag):
        twin = self._twin(Policy.MEM_LLC)
        flagged = JobSpec.from_json(
            {**twin.to_json(), "policy": {**twin.policy, flag: True}}
        )
        assert flagged.evaluation_digest() \
            != self._named(Policy.MEM_LLC).evaluation_digest()

    def test_unplannable_names_key_by_name(self):
        # A config outside CONFIGS, or a name that is no policy, cannot
        # be planned: the spec keys by its name and has no twin (its
        # run fails later, in the worker, as before).
        buddy = JobSpec(policy="buddy", config="cfg", profile="mini")
        mem_llc = JobSpec(policy="mem+llc", config="cfg", profile="mini")
        assert buddy.evaluation_digest() != mem_llc.evaluation_digest()
        unknown = JobSpec(policy="no-such-policy", config=self.CONFIG,
                          profile="mini")
        assert unknown.evaluation_digest() \
            != self._named(Policy.BUDDY).evaluation_digest()

    def test_digest_did_not_move(self):
        # Recorded at e27fcd6, before evaluation_digest() existed:
        # stores written by earlier versions stay valid.
        assert self._named(Policy.MEM_LLC).digest() == (
            "5742e4d895ff40a118df8f8cdf623e92102b5912ea754229e21c1ab25728feb3"
        )
        twin = self._twin(Policy.BUDDY, rep=1, seed=3)
        assert twin.policy_label == "tuned:faf241f5"
        assert twin.digest() == (
            "aec25b3390c86a09649fcde6c22ca04139afb68f72bc365bad4a57187188731d"
        )
