"""HyperTransport-style interconnect between cores and memory nodes.

A request from a core to a non-local controller traverses one hop per
socket-internal step and an additional (slower, narrower) hop across the
socket boundary.  Each directed node-pair path has a link occupancy so
that concurrent remote traffic queues (§I: "potential contention on
interconnects").

All per-(core, node) quantities — hop count, propagation latency, link
occupancy — are precomputed at construction; the per-access work is a
couple of table lookups.
"""

from __future__ import annotations

from repro.dram.timing import DramTiming
from repro.machine.topology import MachineTopology

#: Off-chip (cross-socket) links are narrower/slower than on-die ones.
CROSS_SOCKET_FACTOR = 2.0


class Interconnect:
    """Timing state of the node-to-node links."""

    __slots__ = (
        "topology", "timing", "_hops", "_prop", "_occupancy", "_link_base",
        "_link_busy", "remote_transfers",
    )

    def __init__(self, topology: MachineTopology, timing: DramTiming) -> None:
        self.topology = topology
        self.timing = timing
        ncores, nnodes = topology.num_cores, topology.num_nodes
        # Per (core, node): hops, one-way propagation, per-transfer occupancy.
        self._hops = [[0] * nnodes for _ in range(ncores)]
        self._prop = [[0.0] * nnodes for _ in range(ncores)]
        self._occupancy = [[0.0] * nnodes for _ in range(ncores)]
        # Directed (src_node, dst_node) paths as one flat table: a core's
        # path to ``node`` is ``_link_base[core] + node``.
        self._link_base = [
            topology.node_of_core(c) * nnodes for c in range(ncores)
        ]
        for core in range(ncores):
            for node in range(nnodes):
                hops = topology.hops(core, node)
                cross = (
                    topology.socket_of_core(core) != topology.socket_of_node(node)
                )
                factor = CROSS_SOCKET_FACTOR if cross else 1.0
                self._hops[core][node] = hops
                self._prop[core][node] = timing.hop_latency * hops * factor
                self._occupancy[core][node] = timing.link_service * hops * factor
        # busy_until per directed path, indexed as above.
        self._link_busy = [0.0] * (nnodes * nnodes)
        self.remote_transfers = 0

    def traverse(self, core: int, node: int, now: float) -> tuple[float, int]:
        """Route a request from ``core`` to memory ``node``.

        Returns ``(arrival_time, hops)``; ``arrival_time`` includes one-way
        propagation and any queueing on the path.  Local accesses (0 hops)
        pass through untouched.
        """
        hops = self._hops[core][node]
        if hops == 0:
            return now, 0
        link = self._link_base[core] + node
        busy = self._link_busy[link]
        start = busy if busy > now else now
        self._link_busy[link] = start + self._occupancy[core][node]
        self.remote_transfers += 1
        return start + self._prop[core][node], hops
