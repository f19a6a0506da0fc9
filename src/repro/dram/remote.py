"""Disaggregated-memory tier: a network hop with a local DRAM cache.

Models the MIND-style memory blade: one or more *remote* nodes whose DRAM
sits across a network fabric instead of the local HyperTransport mesh.
Compute-side hardware keeps a small set-associative DRAM cache of remote
lines, so the common case is a flat local-cache hit; a miss pays the
network round trip plus the ordinary controller/channel/bank timing at
the far end.

Two pieces live here:

* :class:`RemoteTier` — the immutable description a preset attaches to
  its :class:`~repro.machine.presets.MachineSpec` (which nodes are
  remote, the network latency/occupancy, the cache geometry).
* :class:`RemoteCache` — the mutable per-run LRU cache state, owned by
  :class:`~repro.dram.system.DramSystem` (one per remote node).

Everything is deterministic: the cache is strict LRU over insertion-
ordered dicts, and the network link is a single ``busy_until`` queue like
the controller/channel stages.  Both replay loops reach this tier through
:meth:`DramSystem.demand` and :meth:`DramSystem.writeback`, which call
:meth:`RemoteCache.lookup`, :meth:`~RemoteCache.insert` and
:meth:`~RemoteCache.touch`.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class RemoteTier:
    """Static description of the disaggregated tier for one preset.

    Args:
        remote_nodes: node ids whose memory lives across the network.
        network_ns: one-way propagation delay of the fabric; a cache miss
            pays it twice (request + data return).
        network_service_ns: per-message occupancy of the link — messages
            to the same remote node serialize at this rate.
        cache_lines: total capacity of the compute-side DRAM cache, in
            cache lines (per remote node).
        cache_ways: associativity of the DRAM cache.
        cache_hit_ns: flat service time of a DRAM-cache hit.
    """

    remote_nodes: tuple[int, ...]
    network_ns: float = 250.0
    network_service_ns: float = 20.0
    cache_lines: int = 8192
    cache_ways: int = 8
    cache_hit_ns: float = 60.0

    def __post_init__(self) -> None:
        if not self.remote_nodes:
            raise ValueError("RemoteTier needs at least one remote node")
        if len(set(self.remote_nodes)) != len(self.remote_nodes):
            raise ValueError("duplicate node id in remote_nodes")
        if self.cache_lines % self.cache_ways:
            raise ValueError("cache_lines must be a multiple of cache_ways")
        sets = self.cache_lines // self.cache_ways
        if sets & (sets - 1):
            raise ValueError("cache set count must be a power of two")

    @property
    def num_sets(self) -> int:
        """Number of cache sets (capacity / associativity)."""
        return self.cache_lines // self.cache_ways

    def make_cache(self) -> RemoteCache:
        """Fresh (empty) DRAM-cache state for one remote node."""
        return RemoteCache(self.num_sets, self.cache_ways)


class RemoteCache:
    """Set-associative strict-LRU cache of remote lines (deterministic).

    Keys are line numbers (``paddr >> line_bits``).  Each set is an
    insertion-ordered dict used as an LRU list: a hit re-inserts the key
    at the back, a fill evicts the front.  Evictions are clean — remote
    writebacks are modeled at the access layer, not here.
    """

    __slots__ = ("_num_sets", "_ways", "_sets", "hits", "misses")

    def __init__(self, num_sets: int, ways: int) -> None:
        self._num_sets = num_sets
        self._ways = ways
        self._sets: list[dict[int, None]] = [{} for _ in range(num_sets)]
        self.hits = 0
        self.misses = 0

    def lookup(self, line: int) -> bool:
        """Probe for ``line``; on a hit, promote it to most-recently-used."""
        s = self._sets[line & (self._num_sets - 1)]
        if line in s:
            del s[line]
            s[line] = None
            self.hits += 1
            return True
        self.misses += 1
        return False

    def touch(self, line: int) -> bool:
        """LRU-promote ``line`` if present, without counting a probe."""
        s = self._sets[line & (self._num_sets - 1)]
        if line in s:
            del s[line]
            s[line] = None
            return True
        return False

    def insert(self, line: int) -> None:
        """Fill ``line`` after a :meth:`lookup` miss, evicting the set's
        LRU entry if the set is full."""
        s = self._sets[line & (self._num_sets - 1)]
        if len(s) >= self._ways:
            del s[next(iter(s))]
        s[line] = None

    def reset(self) -> None:
        """Empty every set and zero the probe counters (fresh run)."""
        for s in self._sets:
            s.clear()
        self.hits = 0
        self.misses = 0
