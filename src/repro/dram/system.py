"""DRAM system facade: controllers, channels, banks, interconnect.

One :class:`DramSystem` owns the mutable timing state of every memory
resource in the machine and serves line-granular demand accesses and
posted write-backs.  Banks are identified by their *bank color* (Eq. 1),
which is globally unique — the same identifier TintMalloc partitions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dram.bank import Bank, RowKind
from repro.dram.interconnect import Interconnect
from repro.dram.remote import RemoteCache, RemoteTier
from repro.dram.timing import DEFAULT_TIMING, DramTiming
from repro.machine.address import AddressMapping
from repro.machine.topology import MachineTopology
from repro.obs.observer import NULL_OBSERVER, BaseObserver

class AccessResult:
    """Outcome of one DRAM demand access (slots class: hot-path object)."""

    __slots__ = ("latency", "row_kind", "node", "bank_color", "hops", "queue_wait")

    def __init__(
        self,
        latency: float,  # total critical-path latency seen by the core
        row_kind: RowKind,
        node: int,  # controller that served the request
        bank_color: int,
        hops: int,  # interconnect hops (0 = local controller)
        queue_wait: float,  # time spent waiting behind other requests
    ) -> None:
        self.latency = latency
        self.row_kind = row_kind
        self.node = node
        self.bank_color = bank_color
        self.hops = hops
        self.queue_wait = queue_wait

    @property
    def remote(self) -> bool:
        """Whether the access crossed the interconnect (hops > 0)."""
        return self.hops > 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AccessResult(latency={self.latency:.1f}, kind={self.row_kind}, "
            f"node={self.node}, bank={self.bank_color}, hops={self.hops})"
        )


@dataclass(slots=True)
class DramStats:
    """Aggregate counters over one simulation run (slots: updated per access)."""

    accesses: int = 0
    row_hits: int = 0
    row_misses: int = 0
    row_conflicts: int = 0
    local_accesses: int = 0
    remote_accesses: int = 0
    writebacks: int = 0
    prefetch_fills: int = 0
    remote_cache_hits: int = 0
    remote_cache_misses: int = 0
    total_latency: float = 0.0
    total_queue_wait: float = 0.0
    wait_link: float = 0.0
    wait_ctrl: float = 0.0
    wait_chan: float = 0.0
    wait_bank: float = 0.0
    per_node_accesses: dict[int, int] = field(default_factory=dict)

    def record(self, result: AccessResult) -> None:
        """Fold one completed access into the aggregate counters."""
        self.accesses += 1
        self.total_latency += result.latency
        self.total_queue_wait += result.queue_wait
        if result.row_kind is RowKind.HIT:
            self.row_hits += 1
        elif result.row_kind is RowKind.MISS:
            self.row_misses += 1
        else:
            self.row_conflicts += 1
        if result.remote:
            self.remote_accesses += 1
        else:
            self.local_accesses += 1
        self.per_node_accesses[result.node] = (
            self.per_node_accesses.get(result.node, 0) + 1
        )

    @property
    def row_hit_rate(self) -> float:
        """Row-buffer hits as a fraction of accesses (0.0 when idle)."""
        return self.row_hits / self.accesses if self.accesses else 0.0

    @property
    def remote_fraction(self) -> float:
        """Cross-node accesses as a fraction of all accesses."""
        return self.remote_accesses / self.accesses if self.accesses else 0.0

    @property
    def mean_latency(self) -> float:
        """Average end-to-end DRAM latency per access, in sim ns."""
        return self.total_latency / self.accesses if self.accesses else 0.0

    def to_json(self) -> dict:
        """Plain-dict form (used by :meth:`RunMetrics.to_json`).

        ``per_node_accesses`` keys become strings (JSON objects cannot
        have int keys), in ascending node order whatever order the run
        filed them in; :meth:`from_json` converts them back.
        """
        return {
            "accesses": self.accesses,
            "row_hits": self.row_hits,
            "row_misses": self.row_misses,
            "row_conflicts": self.row_conflicts,
            "local_accesses": self.local_accesses,
            "remote_accesses": self.remote_accesses,
            "writebacks": self.writebacks,
            "prefetch_fills": self.prefetch_fills,
            "remote_cache_hits": self.remote_cache_hits,
            "remote_cache_misses": self.remote_cache_misses,
            "total_latency": self.total_latency,
            "total_queue_wait": self.total_queue_wait,
            "wait_link": self.wait_link,
            "wait_ctrl": self.wait_ctrl,
            "wait_chan": self.wait_chan,
            "wait_bank": self.wait_bank,
            "per_node_accesses": {
                str(node): count
                for node, count in sorted(self.per_node_accesses.items())
            },
        }

    @classmethod
    def from_json(cls, data: dict) -> "DramStats":
        """Inverse of :meth:`to_json`."""
        return cls(
            accesses=int(data["accesses"]),
            row_hits=int(data["row_hits"]),
            row_misses=int(data["row_misses"]),
            row_conflicts=int(data["row_conflicts"]),
            local_accesses=int(data["local_accesses"]),
            remote_accesses=int(data["remote_accesses"]),
            writebacks=int(data["writebacks"]),
            prefetch_fills=int(data["prefetch_fills"]),
            remote_cache_hits=int(data.get("remote_cache_hits", 0)),
            remote_cache_misses=int(data.get("remote_cache_misses", 0)),
            total_latency=float(data["total_latency"]),
            total_queue_wait=float(data["total_queue_wait"]),
            wait_link=float(data["wait_link"]),
            wait_ctrl=float(data["wait_ctrl"]),
            wait_chan=float(data["wait_chan"]),
            wait_bank=float(data["wait_bank"]),
            per_node_accesses=dict(sorted(
                (int(node), int(count))
                for node, count in data["per_node_accesses"].items()
            )),
        )


class DramSystem:
    """All DRAM timing state of one machine.

    Args:
        mapping: the platform's physical address codec.
        topology: socket/node/core layout (for interconnect distances).
        timing: DRAM timing parameters.
        remote: optional disaggregated tier — nodes listed there are
            served through a compute-side DRAM cache and, on a miss, a
            network round trip in front of the ordinary controller/
            channel/bank pipeline (see :mod:`repro.dram.remote`).
    """

    def __init__(
        self,
        mapping: AddressMapping,
        topology: MachineTopology,
        timing: DramTiming = DEFAULT_TIMING,
        observer: BaseObserver = NULL_OBSERVER,
        remote: RemoteTier | None = None,
    ) -> None:
        if mapping.num_nodes != topology.num_nodes:
            raise ValueError("mapping/topology node count mismatch")
        self.mapping = mapping
        self.topology = topology
        self.timing = timing
        self.obs = observer
        self._obs_enabled = observer.enabled
        self.banks = [Bank(timing) for _ in range(mapping.num_bank_colors)]
        self._ctrl_busy = [0.0] * mapping.num_nodes
        # One data bus per (node, channel).
        self._chan_busy = [0.0] * (mapping.num_nodes * mapping.num_channels)
        self.interconnect = Interconnect(topology, timing)
        self.stats = DramStats()
        # Routing: a frame's bank color (Eq. 1), read from the mapping's
        # per-frame table through a memoryview (plain-int indexing, no
        # copy), indexes its Bank.  The color is mixed-radix with the node
        # most significant, so it alone fixes the node and the channel
        # bus: per-color tables, also used by the engine's batched replay.
        self.frame_bank = memoryview(mapping.frame_color_table()[0])
        colors = range(mapping.num_bank_colors)
        self._bank_node = [
            bc // mapping.bank_colors_per_node for bc in colors
        ]
        self._bank_chan = [
            bc // (mapping.num_ranks * mapping.num_banks) for bc in colors
        ]
        self._page_bits = mapping.page_bits
        self._row_shift = mapping.row_bits_start
        self._line_bits = mapping.line_bits
        # Disaggregated tier: per-remote-node DRAM cache + network link.
        self.remote = remote
        self._remote_caches: dict[int, RemoteCache] = {}
        self._net_busy: dict[int, float] = {}
        if remote is not None:
            for node in remote.remote_nodes:
                if not 0 <= node < mapping.num_nodes:
                    raise ValueError(f"remote node {node} outside mapping")
                self._remote_caches[node] = remote.make_cache()
                self._net_busy[node] = 0.0
        self._register_counters(observer)

    def _register_counters(self, obs: BaseObserver) -> None:
        """Expose aggregate stats and controller occupancy as counters.

        Callbacks close over ``self`` (not ``self.stats``) so they keep
        reading the live stats object across :meth:`reset`.
        """
        if not obs.enabled:
            return
        obs.register_counter("dram.accesses", lambda now: self.stats.accesses)
        obs.register_counter("dram.row_hits", lambda now: self.stats.row_hits)
        obs.register_counter("dram.row_misses", lambda now: self.stats.row_misses)
        obs.register_counter(
            "dram.row_conflicts", lambda now: self.stats.row_conflicts
        )
        obs.register_counter(
            "dram.local_accesses", lambda now: self.stats.local_accesses
        )
        obs.register_counter(
            "dram.remote_accesses", lambda now: self.stats.remote_accesses
        )
        obs.register_counter("dram.writebacks", lambda now: self.stats.writebacks)
        for node in range(self.mapping.num_nodes):
            # Gauge: how far ahead of "now" this controller is booked —
            # the queue-depth proxy of a busy-time occupancy model.
            obs.register_counter(
                f"dram.ctrl_queue_ns[{node}]",
                lambda now, n=node: max(0.0, self._ctrl_busy[n] - now),
            )

    # ------------------------------------------------------------------ access
    def access(
        self, paddr: int, core: int, now: float, is_write: bool = False
    ) -> AccessResult:
        """Serve an LLC-miss demand access and return its latency.

        Every path runs one pipeline.  A disaggregated node first probes
        its compute-side DRAM cache: a hit is a flat
        :attr:`RemoteTier.cache_hit_ns` that never crosses the fabric or
        reaches a far bank (booked as a *local* row hit, and counted in
        ``remote_cache_hits`` so the sanitizer's bank-conservation
        identity stays checkable).  Otherwise one front leg reaches the
        node's controller: the interconnect mesh (a no-op for the local
        node) or the network link of a disaggregated node (whose fetched
        line then fills the DRAM cache, clean LRU eviction).  One
        controller -> channel -> bank stage (:meth:`_serve`) follows,
        then the return leg, and the access is booked through
        :meth:`DramStats.record`.  ``Engine._run_section_batched``
        replays the same pipeline inline; keep the two in lockstep.

        Args:
            paddr: physical byte address of the missing line.
            core: requesting core (selects the interconnect path).
            now: request issue time in ns.
            is_write: write requests add write-recovery bank occupancy.

        Returns:
            An :class:`AccessResult` with the critical-path latency (ns)
            and the decoded route/row outcome.
        """
        bank_color = self.frame_bank[paddr >> self._page_bits]
        node = self._bank_node[bank_color]
        stats = self.stats
        cache = self._remote_caches.get(node)
        if cache is None:
            interconnect = self.interconnect
            arrival, hops = interconnect.traverse(core, node, now)
            back = interconnect._prop[core][node]
            # Rounding can leave an unqueued crossing a hair below zero.
            w_link = max(arrival - now - back, 0.0)
        else:
            line = paddr >> self._line_bits
            if cache.lookup(line):
                stats.remote_cache_hits += 1
                result = AccessResult(
                    self.remote.cache_hit_ns, RowKind.HIT, node, bank_color, 0, 0.0
                )
                stats.record(result)
                if self._obs_enabled:
                    self.obs.span(
                        "dram.remote_cache_hit", now, now + result.latency,
                        track="dram", tid=node,
                        args={"bank": bank_color, "core": core,
                              "write": is_write},
                    )
                return result
            stats.remote_cache_misses += 1
            arrival, w_link = self._network_leg(node, now)
            back = self.remote.network_ns
            hops = 1
            cache.insert(line)

        finish, kind, w_ctrl, w_chan, w_bank = self._serve(
            bank_color, node, paddr >> self._row_shift, arrival, is_write
        )
        done = finish + back
        queue_wait = w_link + w_ctrl + w_chan + w_bank
        result = AccessResult(done - now, kind, node, bank_color, hops, queue_wait)
        stats.wait_link += w_link
        stats.wait_ctrl += w_ctrl
        stats.wait_chan += w_chan
        stats.wait_bank += w_bank
        stats.record(result)
        if self._obs_enabled:
            args = {"bank": bank_color, "row": kind.value}
            if cache is None:
                args["hops"] = hops
            args.update(core=core, queue_wait=queue_wait, write=is_write)
            self.obs.span(
                "dram.access" if cache is None else "dram.remote_access",
                now, done, track="dram", tid=node, args=args,
            )
        return result

    def _network_leg(self, node: int, now: float) -> tuple[float, float]:
        """Cross a disaggregated node's network link: one busy-until
        queue per node, one fabric crossing that bypasses the mesh.

        Returns ``(arrival, wait)``: the time the message reaches the far
        end and how long it queued for the link.
        """
        busy = self._net_busy[node]
        start = now if now > busy else busy
        self._net_busy[node] = start + self.remote.network_service_ns
        return start + self.remote.network_ns, start - now

    def _serve(
        self, bank_color: int, node: int, row: int, arrival: float,
        is_write: bool,
    ) -> tuple[float, RowKind, float, float, float]:
        """Controller front-end queue, channel data bus, then the bank.

        Returns ``(finish, kind, w_ctrl, w_chan, w_bank)``: when the bank
        has served the request, its row outcome, and the wait at each
        stage.  (max() written as conditionals: same floats.)
        """
        t = self.timing
        ctrl_busy = self._ctrl_busy
        busy = ctrl_busy[node]
        ctrl_start = arrival if arrival > busy else busy
        ctrl_busy[node] = ctrl_start + t.ctrl_service
        after_ctrl = ctrl_start + t.ctrl_overhead
        chan = self._bank_chan[bank_color]
        chan_busy = self._chan_busy
        busy = chan_busy[chan]
        chan_start = after_ctrl if after_ctrl > busy else busy
        chan_busy[chan] = chan_start + t.channel_service
        bank_start, service, kind = self.banks[bank_color].access(
            row, chan_start, is_write
        )
        return (
            bank_start + service, kind, ctrl_start - arrival,
            chan_start - after_ctrl, bank_start - chan_start,
        )

    def prefetch_fill(self, paddr: int, core: int, now: float) -> None:
        """Serve a prefetch: full bank/channel/controller occupancy, but
        nothing waits on it (latency is off the critical path) and demand
        statistics are untouched."""
        bc = self.frame_bank[paddr >> self._page_bits]
        node = self._bank_node[bc]
        if node in self._remote_caches:
            # Prefetchers fill the LLC straight from the far DRAM — the
            # compute-side DRAM cache is demand-filled only, so the fill
            # pays network link occupancy instead of the mesh traverse.
            arrival, _ = self._network_leg(node, now)
        else:
            arrival, _ = self.interconnect.traverse(core, node, now)
        self._serve(bc, node, paddr >> self._row_shift, arrival, False)
        self.stats.prefetch_fills += 1

    def writeback(self, paddr: int, now: float) -> None:
        """Post an eviction write-back (bank/channel occupancy only)."""
        bc = self.frame_bank[paddr >> self._page_bits]
        node = self._bank_node[bc]
        cache = self._remote_caches.get(node)
        if cache is not None:
            if cache.touch(paddr >> self._line_bits):
                # Absorbed by the compute-side DRAM cache (write-back at
                # its own eviction is folded into the clean-evict model).
                self.stats.writebacks += 1
                return
            # The posted write lands at the far end.
            now, _ = self._network_leg(node, now)
        chan = self._bank_chan[bc]
        chan_busy = self._chan_busy
        busy = chan_busy[chan]
        chan_busy[chan] = (
            (now if now > busy else busy) + self.timing.channel_service
        )
        self.banks[bc].writeback(paddr >> self._row_shift, now)
        self.stats.writebacks += 1

    # ------------------------------------------------------------------ misc
    def bank_of(self, paddr: int) -> Bank:
        """The :class:`Bank` object a byte address routes to."""
        return self.banks[self.frame_bank[paddr >> self._page_bits]]

    def reset(self) -> None:
        """Clear all timing state and statistics (fresh run)."""
        for bank in self.banks:
            bank.open_row = None
            bank.busy_until = 0.0
            bank.refresh_epoch = -1
            bank.reset_stats()
        self._ctrl_busy = [0.0] * self.mapping.num_nodes
        self._chan_busy = [0.0] * (self.mapping.num_nodes * self.mapping.num_channels)
        self.interconnect = Interconnect(self.topology, self.timing)
        for node, cache in self._remote_caches.items():
            cache.reset()
            self._net_busy[node] = 0.0
        self.stats = DramStats()
