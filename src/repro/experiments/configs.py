"""The paper's five thread/node configurations (§V-B).

Core pins follow the paper's examples exactly:

* ``16_threads_4_nodes`` — all 16 cores, 4 controllers.
* ``8_threads_4_nodes``  — cores 0,1,4,5,8,9,12,13: one pair per node.
* ``8_threads_2_nodes``  — cores 0-7 (both nodes of socket 0).
* ``4_threads_4_nodes``  — cores 0,4,8,12: one per node.
* ``4_threads_1_nodes``  — cores 0-3 (all on node 0).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.machine.topology import MachineTopology


@dataclass(frozen=True)
class ExperimentConfig:
    """One thread-placement configuration."""

    name: str
    cores: tuple[int, ...]

    def nodes_used(self, topology: MachineTopology) -> tuple[int, ...]:
        return tuple(sorted({topology.node_of_core(c) for c in self.cores}))


CONFIGS: dict[str, ExperimentConfig] = {
    "16_threads_4_nodes": ExperimentConfig(
        "16_threads_4_nodes", tuple(range(16))
    ),
    "8_threads_4_nodes": ExperimentConfig(
        "8_threads_4_nodes", (0, 1, 4, 5, 8, 9, 12, 13)
    ),
    "8_threads_2_nodes": ExperimentConfig(
        "8_threads_2_nodes", tuple(range(8))
    ),
    "4_threads_4_nodes": ExperimentConfig(
        "4_threads_4_nodes", (0, 4, 8, 12)
    ),
    "4_threads_1_nodes": ExperimentConfig(
        "4_threads_1_nodes", (0, 1, 2, 3)
    ),
}

#: Paper ordering.
CONFIG_ORDER = (
    "16_threads_4_nodes",
    "8_threads_4_nodes",
    "8_threads_2_nodes",
    "4_threads_4_nodes",
    "4_threads_1_nodes",
)


def configs_for(topology: MachineTopology) -> dict[str, ExperimentConfig]:
    """Topology-derived analogues of the paper's configurations.

    The named :data:`CONFIGS` hard-code the Opteron's 16-core/4-node core
    numbering; this derives the same *shapes* from any preset's topology
    (names follow the ``{threads}_threads_{nodes}_nodes`` convention):

    * all cores on all nodes (the headline config),
    * half the cores, still spread over every node (the first
      ``cores_per_node // 2`` cores of each node; skipped when nodes
      have a single core),
    * all cores of the first half of the nodes (skipped on 1-node
      machines... which presets don't have),
    * one core per node,
    * all cores of node 0.

    Degenerate duplicates (e.g. one-per-node == all-cores when
    ``cores_per_node == 1``) collapse onto the first name generated.
    On the Opteron presets this reproduces :data:`CONFIGS` exactly.
    """
    nodes = topology.num_nodes
    cpn = topology.cores_per_node
    node_cores = [
        tuple(range(n * cpn, (n + 1) * cpn)) for n in range(nodes)
    ]
    shapes: list[tuple[int, ...]] = [tuple(range(topology.num_cores))]
    if cpn > 1:
        shapes.append(tuple(
            c for cores in node_cores for c in cores[: cpn // 2]
        ))
    if nodes > 1:
        shapes.append(tuple(
            c for cores in node_cores[: nodes // 2] for c in cores
        ))
    shapes.append(tuple(cores[0] for cores in node_cores))
    shapes.append(node_cores[0])
    out: dict[str, ExperimentConfig] = {}
    seen: set[tuple[int, ...]] = set()
    for cores in shapes:
        if cores in seen:
            continue
        seen.add(cores)
        nnodes = len({topology.node_of_core(c) for c in cores})
        name = f"{len(cores)}_threads_{nnodes}_nodes"
        if name not in out:
            out[name] = ExperimentConfig(name, cores)
    return out
