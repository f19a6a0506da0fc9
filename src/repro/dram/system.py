"""DRAM system facade: controllers, channels, banks, interconnect.

One :class:`DramSystem` owns the mutable timing state of every memory
resource in the machine and serves line-granular demand accesses and
posted write-backs.  Banks are identified by their *bank color* (Eq. 1),
which is globally unique — the same identifier TintMalloc partitions.

Each bank serves one request at a time (``bank_busy`` occupancy) and
keeps at most one row open.  A request to the open row is cheap (row
hit), one to another row pays precharge + activate (row conflict), one
to an idle bank pays activate only (closed miss), and periodic refresh
closes the row.  This is the mechanism behind the paper's Fig. 8: two
tasks that interleave rows of a *shared* bank turn each other's row
hits into row conflicts.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields

from repro.dram.interconnect import Interconnect
from repro.dram.remote import RemoteCache, RemoteTier
from repro.dram.timing import DEFAULT_TIMING, DramTiming
from repro.machine.address import AddressMapping
from repro.machine.topology import MachineTopology
from repro.obs.observer import NULL_OBSERVER, BaseObserver


class RowKind(enum.Enum):
    """Outcome of a row-buffer lookup."""

    HIT = "hit"
    MISS = "miss"  # bank idle (no open row): activate + access
    CONFLICT = "conflict"  # other row open: precharge + activate + access


# Outcome codes.  DramSystem.demand returns one per LLC miss: 9 for a
# far-tier DRAM-cache hit, otherwise its path's base (3 local
# controller, 6 across the mesh, 10 far tier) plus its row outcome (+0
# miss, +1 hit, +2 conflict).  The engine's batched loop adds 0 = L1
# hit, 1 = L2 hit and 2 = LLC hit, and tallies all of them after a
# section (Engine's _fold_outcomes).
NCODES = 13
CACHE_HIT = 9
ROW_MISS = (3, 6, 10)
ROW_HIT = (4, 7, 11)
ROW_CONFLICT = (5, 8, 12)
MESH = (6, 7, 8)
FAR_MISS = (10, 11, 12)
_ROW_KINDS = (RowKind.MISS, RowKind.HIT, RowKind.CONFLICT)
#: The row outcome of every DRAM code (None for the cache-level codes).
_CODE_KIND = (None,) * 3 + _ROW_KINDS * 2 + (RowKind.HIT,) + _ROW_KINDS


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
        """Count one completed access by row outcome, locality and node.

        The float sums (latency and the queue waits) are booked by
        :class:`DramSystem`'s ``demand`` stage, which both loops call.
        """
        self.accesses += 1
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
        """Plain-dict form of every field (used by :meth:`RunMetrics.to_json`).

        ``per_node_accesses`` keys become strings (JSON objects cannot
        have int keys), in ascending node order whatever order the run
        filed them in.
        """
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["per_node_accesses"] = {
            str(node): count
            for node, count in sorted(self.per_node_accesses.items())
        }
        return out


class DramSystem:
    """All DRAM timing state of one machine.

    The state is flat lists, one entry per bank color, controller
    (node), channel bus or remote node: ``bank_busy``, ``bank_row`` (the
    open row, None when precharged) and ``bank_epoch`` (the last refresh
    window the bank saw, a float), plus each bank's ``bank_hits``,
    ``bank_misses`` and ``bank_conflicts``.  Both replay loops run the
    same stages over it, ``demand`` for an LLC miss and ``writeback``
    for a dirty LLC victim (built by :meth:`_bind_stages`).

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
        nbanks = mapping.num_bank_colors
        self.bank_busy = [0.0] * nbanks
        self.bank_row: list[int | None] = [None] * nbanks
        self.bank_epoch = [-1.0] * nbanks
        self.bank_misses = [0] * nbanks
        self.bank_hits = [0] * nbanks
        self.bank_conflicts = [0] * nbanks
        self._bank_count = dict(zip(
            _ROW_KINDS, (self.bank_misses, self.bank_hits, self.bank_conflicts)
        ))
        self._ctrl_busy = [0.0] * mapping.num_nodes
        # One data bus per (node, channel).
        self._chan_busy = [0.0] * (mapping.num_nodes * mapping.num_channels)
        self.interconnect = Interconnect(topology, timing)
        #: this run's aggregate counters; the stages book into it.
        self.stats = DramStats()
        # Routing: a frame's bank color (Eq. 1), read from the mapping's
        # per-frame table through a memoryview (plain-int indexing, no
        # copy), indexes the bank lists.  The color is mixed-radix with
        # the node most significant, so it alone fixes the node and the
        # channel bus.
        self.frame_bank = memoryview(mapping.frame_color_table()[0])
        colors = range(nbanks)
        self._bank_node = [
            bc // mapping.bank_colors_per_node for bc in colors
        ]
        self._bank_chan = [
            bc // (mapping.num_ranks * mapping.num_banks) for bc in colors
        ]
        self._page_bits = mapping.page_bits
        self._row_shift = mapping.row_bits_start
        self._line_bits = mapping.line_bits
        # Disaggregated tier: each node's DRAM cache (None for a node on
        # the mesh) and each remote node's network link.
        self.remote = remote
        self._remote_caches: list[RemoteCache | None] = [None] * mapping.num_nodes
        self._net_busy: dict[int, float] = {}
        if remote is not None:
            for node in remote.remote_nodes:
                if not 0 <= node < mapping.num_nodes:
                    raise ValueError(f"remote node {node} outside mapping")
                self._remote_caches[node] = remote.make_cache()
                self._net_busy[node] = 0.0
        self._register_counters(observer)
        self._bind_stages()

    def _register_counters(self, obs: BaseObserver) -> None:
        """Expose aggregate stats and controller occupancy as counters."""
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

        Decodes ``paddr``, serves it through the ``demand`` stage and
        counts the outcome: per bank, in the DRAM-cache counters and
        through :meth:`DramStats.record` (a DRAM-cache hit as a local
        row hit that no bank served).

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
        latency, code, queue_wait = self.demand(
            bank_color, paddr >> self._row_shift, paddr >> self._line_bits,
            core, now, is_write,
        )
        node = self._bank_node[bank_color]
        kind = _CODE_KIND[code]
        stats = self.stats
        if code == CACHE_HIT:
            stats.remote_cache_hits += 1
            hops = 0
        else:
            self._bank_count[kind][bank_color] += 1
            if code in FAR_MISS:
                stats.remote_cache_misses += 1
                hops = 1
            else:
                hops = self.interconnect._hops[core][node]
        result = AccessResult(latency, kind, node, bank_color, hops, queue_wait)
        stats.record(result)
        if self._obs_enabled:
            if code == CACHE_HIT:
                name = "dram.remote_cache_hit"
                args = {"bank": bank_color, "core": core, "write": is_write}
            else:
                args = {"bank": bank_color, "row": kind.value}
                if code in FAR_MISS:
                    name = "dram.remote_access"
                else:
                    name = "dram.access"
                    args["hops"] = hops
                args.update(core=core, queue_wait=queue_wait, write=is_write)
            self.obs.span(
                name, now, now + latency, track="dram", tid=node, args=args,
            )
        return result

    def prefetch_fill(self, paddr: int, core: int, now: float) -> None:
        """Serve a prefetch: full bank/channel/controller occupancy, but
        nothing waits on it (latency is off the critical path) and demand
        statistics are untouched."""
        bc = self.frame_bank[paddr >> self._page_bits]
        node = self._bank_node[bc]
        if self._remote_caches[node] is not None:
            # Prefetchers fill the LLC straight from the far DRAM — the
            # compute-side DRAM cache is demand-filled only, so the fill
            # pays network link occupancy instead of the mesh traverse.
            arrival, _ = self._network_leg(node, now)
        else:
            arrival, _ = self.interconnect.traverse(core, node, now)
        outcome = self._serve(bc, node, paddr >> self._row_shift, arrival, False)[1]
        self._bank_count[_ROW_KINDS[outcome]][bc] += 1
        self.stats.prefetch_fills += 1

    def _bind_stages(self) -> None:
        """Build ``demand``, ``writeback``, ``_serve`` and
        ``_network_leg`` as closures.

        They run per LLC miss or posted write in both replay loops, so
        they read the state lists and timing from closure cells, not
        attributes.  No closure holds ``self``, so a finished run is
        freed by refcount.
        """
        t = self.timing
        ctrl_service, ctrl_overhead = t.ctrl_service, t.ctrl_overhead
        channel_service, refresh_interval = t.channel_service, t.refresh_interval
        row_hit, row_miss, row_conflict = t.row_hit, t.row_miss, t.row_conflict
        write_recovery = t.write_recovery
        wb_scale = t.writeback_occupancy_scale
        ctrl_busy, chan_busy = self._ctrl_busy, self._chan_busy
        bank_busy, bank_row, bank_epoch = (
            self.bank_busy, self.bank_row, self.bank_epoch
        )
        bank_node, bank_chan = self._bank_node, self._bank_chan
        far, frame_bank = self._remote_caches, self.frame_bank
        page_line_shift = self._page_bits - self._line_bits
        line_bits, row_shift = self._line_bits, self._row_shift
        ic = self.interconnect
        traverse, hops, prop = ic.traverse, ic._hops, ic._prop
        stats, net_busy = self.stats, self._net_busy
        tier = self.remote
        if tier is not None:
            net_ns, cache_hit_ns = tier.network_ns, tier.cache_hit_ns
            net_service = tier.network_service_ns

        def network_leg(node: int, now: float) -> tuple[float, float]:
            """Cross a far node's network link; ``(arrival, wait)``."""
            busy = net_busy[node]
            start = now if now > busy else busy
            net_busy[node] = start + net_service
            return start + net_ns, start - now

        def serve(
            bank_color: int, node: int, row: int, arrival: float,
            is_write: bool,
        ) -> tuple[float, int, float, float, float]:
            """Controller front-end queue, channel data bus, then the bank.

            Crossing a refresh boundary closes the row buffer (the epoch
            is kept lazily); then the open row classifies the request,
            which opens its own row.  Returns ``(finish, outcome, w_ctrl,
            w_chan, w_bank)``, the outcome 0 miss, 1 hit or 2 conflict.
            """
            busy = ctrl_busy[node]
            ctrl_start = arrival if arrival > busy else busy
            ctrl_busy[node] = ctrl_start + ctrl_service
            after_ctrl = ctrl_start + ctrl_overhead
            chan = bank_chan[bank_color]
            busy = chan_busy[chan]
            chan_start = after_ctrl if after_ctrl > busy else busy
            chan_busy[chan] = chan_start + channel_service
            busy = bank_busy[bank_color]
            start = chan_start if chan_start > busy else busy
            epoch = start // refresh_interval
            open_row = bank_row[bank_color]
            if epoch != bank_epoch[bank_color]:
                bank_epoch[bank_color] = epoch
                open_row = None
            if open_row is None:
                outcome, service = 0, row_miss
            elif open_row == row:
                outcome, service = 1, row_hit
            else:
                outcome, service = 2, row_conflict
            bank_row[bank_color] = row
            bank_busy[bank_color] = start + (
                service + (write_recovery if is_write else 0.0)
            )
            return (
                start + service, outcome, ctrl_start - arrival,
                chan_start - after_ctrl, start - chan_start,
            )

        def demand(
            bank_color: int, row: int, line: int, core: int, now: float,
            is_write: bool,
        ) -> tuple[float, int, float]:
            """The demand stage: serve one LLC miss.

            A far node's DRAM-cache hit is a flat ``cache_hit_ns`` that
            reaches no bank.  Otherwise one front leg reaches the node's
            controller: none for the local node, the mesh link
            (:meth:`Interconnect.traverse`), or a far node's network
            link, whose line then fills the DRAM cache.  ``serve`` and
            the return leg follow.  The waits, the latency and the total
            wait are booked into :attr:`stats`; the caller counts the
            code.  Returns ``(latency, code, queue_wait)``, the code from
            the table above :class:`AccessResult`.
            """
            node = bank_node[bank_color]
            cache = far[node]
            if cache is None:
                if hops[core][node]:
                    arrival, _ = traverse(core, node, now)
                    back = prop[core][node]
                    # Rounding can leave an unqueued crossing a hair
                    # below 0.
                    w_link = arrival - now - back
                    if w_link < 0.0:
                        w_link = 0.0
                    code = 6
                else:
                    arrival = now
                    back = w_link = 0.0
                    code = 3
            elif cache.lookup(line):
                # Zero waits: the (never -0.0) wait sums stay as they are.
                stats.total_latency += cache_hit_ns
                return cache_hit_ns, CACHE_HIT, 0.0
            else:
                arrival, w_link = network_leg(node, now)
                back = net_ns
                cache.insert(line)
                code = 10
            finish, outcome, w_ctrl, w_chan, w_bank = serve(
                bank_color, node, row, arrival, is_write
            )
            latency = finish + back - now
            queue_wait = w_link + w_ctrl + w_chan + w_bank
            stats.wait_link += w_link
            stats.wait_ctrl += w_ctrl
            stats.wait_chan += w_chan
            stats.wait_bank += w_bank
            stats.total_latency += latency
            stats.total_queue_wait += queue_wait
            return latency, code + outcome, queue_wait

        def writeback(line: int, now: float) -> None:
            """The write-back stage: post a dirty LLC victim's eviction.

            A far node's DRAM cache absorbs the write if it holds the
            line (an LRU touch); otherwise the write crosses the network
            link.  Controllers drain posted writes off the critical path:
            no controller stage, no row opened, the channel occupied in
            full and the bank for a scaled share of an access — how
            un-partitioned LLC evictions disturb other threads' banks.
            """
            bc = frame_bank[line >> page_line_shift]
            node = bank_node[bc]
            cache = far[node]
            if cache is not None:
                if cache.touch(line):
                    stats.writebacks += 1
                    return
                now, _ = network_leg(node, now)
            chan = bank_chan[bc]
            busy = chan_busy[chan]
            chan_busy[chan] = (now if now > busy else busy) + channel_service
            busy = bank_busy[bc]
            start = now if now > busy else busy
            # The refresh rule of serve(); the write opens no row.
            epoch = start // refresh_interval
            open_row = bank_row[bc]
            if epoch != bank_epoch[bc]:
                bank_epoch[bc] = epoch
                bank_row[bc] = open_row = None
            if open_row is None:
                base = row_miss
            elif open_row == (line << line_bits) >> row_shift:
                base = row_hit
            else:
                base = row_conflict
            bank_busy[bc] = start + ((base + write_recovery) * wb_scale)
            stats.writebacks += 1

        self._network_leg = network_leg
        self._serve = serve
        self.demand = demand
        self.writeback = writeback
