"""Hypothesis properties for JobSpec digest canonicalization.

The content digest is the cache key for every stored simulation result,
so its contract has to hold for *arbitrary* specs, not the handful the
sweep builds: identical identities always collide (dict key order,
JSON round-trips, unicode bench names must not matter), different
identities never collide, execution parameters never leak into it, and
a record-schema bump invalidates every digest (no false cache hits
across layouts).
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import jobs as jobs_module
from repro.service.jobs import JobSpec

#: Full-range text including non-ASCII (but no surrogates, which JSON
#: cannot encode).
_names = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)),
    min_size=1, max_size=16,
)


@st.composite
def specs(draw, **fixed):
    """A random valid JobSpec (identity fields only, unless overridden)."""
    kw = dict(
        kind=draw(st.sampled_from(["bench", "synthetic"])),
        bench=draw(_names),
        policy=draw(st.sampled_from(
            ["buddy", "bpm", "llc", "mem", "mem+llc", "mem+llc(part)"]
        )),
        config=draw(_names),
        rep=draw(st.integers(0, 5)),
        profile=draw(st.sampled_from(["mini", "scaled"])),
        seed=draw(st.integers(0, 2**31 - 1)),
        sanitize=draw(st.sampled_from(["off", "cheap", "full"])),
    )
    kw.update(fixed)
    return JobSpec(**kw)


_exec_params = st.fixed_dictionaries({
    "timeout_s": st.one_of(
        st.none(),
        st.floats(min_value=1e-6, max_value=1e6,
                  allow_nan=False, allow_infinity=False),
    ),
    "max_retries": st.integers(0, 10),
    "force_run": st.booleans(),
    "trace_dir": st.one_of(st.none(), _names),
})


class TestDigestCanonicalization:
    @settings(max_examples=80, deadline=None)
    @given(specs(), _exec_params)
    def test_execution_fields_never_change_the_digest(self, spec, execp):
        # Same evaluation at a different timeout/retry budget
        # must hit the same cache line.
        variant = JobSpec.from_json({**spec.to_json(), **execp})
        assert variant.digest() == spec.digest()

    @settings(max_examples=80, deadline=None)
    @given(specs())
    def test_json_roundtrip_and_key_order_invariance(self, spec):
        doc = spec.to_json()
        # Reverse the dict insertion order and push it through a real
        # JSON wire round trip: the digest must not notice either.
        reordered = json.loads(
            json.dumps({k: doc[k] for k in reversed(list(doc))})
        )
        clone = JobSpec.from_json(reordered)
        assert clone == spec
        assert clone.digest() == spec.digest()

    @settings(max_examples=80, deadline=None)
    @given(specs(), specs())
    def test_digests_collide_iff_identities_match(self, a, b):
        assert (a.digest() == b.digest()) == (a.identity() == b.identity())

    @settings(max_examples=40, deadline=None)
    @given(_names, _names)
    def test_unicode_bench_names_roundtrip(self, bench_a, bench_b):
        a = JobSpec(bench=bench_a, profile="mini")
        b = JobSpec(bench=bench_b, profile="mini")
        # The wire form survives ensure_ascii encoding untouched.
        wired = JobSpec.from_json(json.loads(json.dumps(a.to_json())))
        assert wired.bench == bench_a
        assert wired.digest() == a.digest()
        assert (a.digest() == b.digest()) == (bench_a == bench_b)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(min_value=1e-9, max_value=1e9,
                     allow_nan=False, allow_infinity=False))
    def test_float_execution_fields_roundtrip_exactly(self, timeout):
        # Floats survive the JSON wire bit-exactly (repr round-trip),
        # so a resubmitted spec is equal, not merely close.
        spec = JobSpec(profile="mini", timeout_s=timeout)
        wired = JobSpec.from_json(json.loads(json.dumps(spec.to_json())))
        assert wired.timeout_s == timeout
        assert wired == spec

    def test_schema_version_bump_invalidates_every_digest(self, monkeypatch):
        # A new record layout must never false-hit entries digested
        # under the old one.
        spec = JobSpec(profile="mini")
        before = spec.digest()
        monkeypatch.setattr(
            jobs_module, "SCHEMA_VERSION", jobs_module.SCHEMA_VERSION + 1
        )
        after = spec.digest()
        assert before != after
        assert spec.identity()["schema_version"] \
            == jobs_module.SCHEMA_VERSION

    def test_digest_is_pure_ascii_sha256(self):
        digest = JobSpec(bench="うどん", profile="mini").digest()
        assert len(digest) == 64
        assert set(digest) <= set("0123456789abcdef")


if __name__ == "__main__":  # pragma: no cover
    pytest.main([__file__, "-q"])
