"""Seeded random-number streams.

Every stochastic component of the simulation draws from its own named
stream derived from a master seed, so that (a) whole experiments are
reproducible bit-for-bit and (b) changing the amount of randomness one
component consumes does not perturb the others.
"""

from __future__ import annotations

import hashlib

import numpy as np


def derive_seed(master: int, *names: object) -> int:
    """Derive a child seed from ``master`` and a path of names.

    Uses SHA-256 over the textual path so the mapping is stable across
    Python versions and processes (``hash()`` is salted and unsuitable).
    """
    text = f"{master}:" + "/".join(str(n) for n in names)
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "little")


class RngStream:
    """A named, seeded wrapper around :class:`numpy.random.Generator`.

    ``RngStream(seed, "workload", "lbm", thread_id)`` gives every thread of
    every workload an independent, reproducible generator.
    """

    def __init__(self, master_seed: int, *names: object) -> None:
        self.seed = derive_seed(master_seed, *names)
        self.gen = np.random.default_rng(self.seed)

    def child(self, *names: object) -> "RngStream":
        """Derive a sub-stream; children of distinct names never collide."""
        return RngStream(self.seed, *names)

    # Convenience passthroughs -------------------------------------------------
    def integers(self, *args, **kwargs):
        return self.gen.integers(*args, **kwargs)

    def random(self, *args, **kwargs):
        return self.gen.random(*args, **kwargs)

    def permutation(self, *args, **kwargs):
        return self.gen.permutation(*args, **kwargs)

    def choice(self, *args, **kwargs):
        return self.gen.choice(*args, **kwargs)
