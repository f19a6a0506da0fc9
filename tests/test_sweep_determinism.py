"""Parallel sweeps must be bit-identical to sequential ones.

``sweep()`` fans independent runs out over the job service's process
executor; every worker rebuilds its machine from seeds, so the records
must not depend on worker count, scheduling, or fork order.  This pins
the hand-off to the workers too: a ``JobSpec`` field that stops
crossing the process boundary cleanly (e.g. one holding a live
simulator object) breaks here, not in a user's eight-hour sweep.
"""

from __future__ import annotations

from repro.alloc.policies import Policy
from repro.experiments.runner import sweep

BENCHES = ["lbm", "blackscholes"]
POLICIES = [Policy.BUDDY, Policy.MEM_LLC]
CONFIGS = ["4_threads_4_nodes"]


def _normalized(records):
    """Order-normalize: keyed by (bench, policy, config, rep)."""
    out = {}
    for r in records:
        key = (r.bench, r.policy, r.config, r.rep)
        assert key not in out, f"duplicate record {key}"
        out[key] = r
    return out


def test_parallel_sweep_matches_sequential():
    kwargs = dict(
        benches=BENCHES, policies=POLICIES, configs=CONFIGS,
        reps=2, profile="mini", seed=3,
    )
    sequential = sweep(max_workers=1, **kwargs)
    pooled = sweep(max_workers=4, **kwargs)
    assert len(sequential) == len(pooled) == 8
    seq, par = _normalized(sequential), _normalized(pooled)
    assert seq.keys() == par.keys()
    for key in seq:
        # RunRecord is a frozen dataclass of plain floats/ints/tuples, so
        # == here is exact, field-for-field bit-identity.
        assert seq[key] == par[key], f"divergent record for {key}"


def test_sweep_is_seed_deterministic():
    """Same seed -> same records; different seed -> different traces."""
    kwargs = dict(
        benches=["lbm"], policies=[Policy.MEM_LLC],
        configs=CONFIGS, reps=1, profile="mini",
    )
    a = sweep(seed=5, max_workers=1, **kwargs)
    b = sweep(seed=5, max_workers=1, **kwargs)
    c = sweep(seed=6, max_workers=1, **kwargs)
    assert a == b
    assert a != c
