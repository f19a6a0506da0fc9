"""Color planners: carve the machine's colors across a thread team.

Implements the paper's partitioning rules (§V-B):

* **MEM / controller-aware bank coloring** — each thread owns an equal,
  disjoint share of its *local* node's bank colors; threads pinned to the
  same node split that node's colors.
* **LLC coloring** — the 32 LLC colors are split evenly and disjointly
  over all threads ("for 16 threads each thread has two private LLC
  colors; for 8 threads, four").
* **MEM+LLC(part)** — private bank colors, but LLC colors are owned by
  *groups* (one group per node): "for 16 threads we create 4 thread
  groups, each with its private 8 LLC colors shared by the 4 threads in
  this group".
* **LLC+MEM(part)** — private LLC colors, bank colors shared group-wide:
  every thread of a node may use all of that node's bank colors.
* **BPM** — see :mod:`repro.alloc.bpm`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.alloc.bpm import bpm_assignments
from repro.alloc.policies import Policy
from repro.machine.address import AddressMapping
from repro.machine.topology import MachineTopology


@dataclass(frozen=True)
class ColorAssignment:
    """Colors for one thread; empty tuples mean "uncolored" on that axis."""

    mem_colors: tuple[int, ...] = field(default=())
    llc_colors: tuple[int, ...] = field(default=())

    @property
    def colored(self) -> bool:
        return bool(self.mem_colors) or bool(self.llc_colors)


def _split_strided(items: range | list[int], parts: int, index: int) -> tuple[int, ...]:
    """Share ``index`` of a *strided* disjoint split: {index, index+parts, ...}.

    Used for LLC colors: strided shares span different values of the LLC
    color bits shared with the bank field (bits 15/16 on the Opteron), so
    a thread coloring both dimensions keeps several usable banks instead
    of being pinned to the one bank value its colors imply.
    """
    items = list(items)
    n = len(items)
    if parts > n:
        return (items[index % n],)
    return tuple(items[index::parts])


def _split_evenly(items: range | list[int], parts: int, index: int) -> tuple[int, ...]:
    """Slice ``items`` into ``parts`` contiguous shares; return share ``index``.

    When ``parts`` exceeds ``len(items)``, shares wrap around so every
    thread still owns at least one color (threads then share colors —
    unavoidable, and flagged by the caller via :func:`plan_is_disjoint`).
    """
    items = list(items)
    n = len(items)
    if parts > n:
        return (items[index % n],)
    base, extra = divmod(n, parts)
    start = index * base + min(index, extra)
    size = base + (1 if index < extra else 0)
    return tuple(items[start : start + size])


def plan_colors(
    policy,
    cores: list[int],
    mapping: AddressMapping,
    topology: MachineTopology,
) -> list[ColorAssignment]:
    """Compute per-thread color assignments.

    Args:
        policy: the coloring policy — a named :class:`Policy`, or a
            structured :class:`~repro.alloc.custom.CustomPolicy` whose
            explicit per-thread assignments are validated against the
            machine and returned as-is.
        cores: pinned core of each thread, thread i -> cores[i].  The
            master thread is thread 0, as in OpenMP.
        mapping: platform address codec (color space sizes).
        topology: core/node layout (locality).

    Returns:
        One :class:`ColorAssignment` per thread.
    """
    nthreads = len(cores)
    if nthreads == 0:
        raise ValueError("need at least one thread")
    if len(set(cores)) != len(cores):
        raise ValueError("threads must be pinned to distinct cores")

    if not isinstance(policy, Policy):
        # Structured policy: an explicit plan, not a planning rule.
        policy.validate(mapping, topology, nthreads=nthreads)
        return list(policy.assignments)

    if policy is Policy.BUDDY:
        return [ColorAssignment()] * nthreads
    if policy is Policy.BPM:
        return bpm_assignments(cores, mapping)

    # Group threads by their local node, preserving thread order.
    node_of = [topology.node_of_core(c) for c in cores]
    peers_by_node: dict[int, list[int]] = {}
    for i, node in enumerate(node_of):
        peers_by_node.setdefault(node, []).append(i)

    # Node groups in first-appearance order — these are the paper's
    # "thread groups" for the (part) policies.
    group_order = list(dict.fromkeys(node_of))

    # Bank colors first: the LLC split below depends on them.
    mems: list[tuple[int, ...]] = []
    for i in range(nthreads):
        node = node_of[i]
        peers = peers_by_node[node]
        mem: tuple[int, ...] = ()
        if policy in (Policy.MEM, Policy.MEM_LLC, Policy.MEM_LLC_PART):
            # Private share of the local node's bank colors.
            mem = _split_evenly(
                mapping.bank_colors_of_node(node), len(peers), peers.index(i)
            )
        elif policy is Policy.LLC_MEM_PART:
            # Group-shared: all of the local node's bank colors.
            mem = tuple(mapping.bank_colors_of_node(node))
        mems.append(mem)

    # LLC colors are split within each thread's *compatible pool* — the
    # LLC colors its bank share can physically host (all colors when the
    # thread holds no bank colors).  On mappings where every thread's
    # bank share spans all shared bank/LLC bit values (the Opteron), the
    # pool is the whole color space and this degenerates to the paper's
    # plain strided split over all threads; on schemes that pin LLC-slice
    # bits per thread (e.g. RoCoRaBaCh's channel bits) each pool's
    # owners split only their own pool, keeping shares non-empty,
    # compatible and pairwise disjoint.
    pools = _llc_pools(mems, mapping)
    llcs: list[tuple[int, ...]]
    if policy in (Policy.LLC, Policy.MEM_LLC, Policy.LLC_MEM_PART):
        # Private LLC share: threads with the same pool split that pool.
        owners_of: dict[tuple[int, ...], list[int]] = {}
        for i, pool in enumerate(pools):
            owners_of.setdefault(pool, []).append(i)
        llcs = [
            _split_strided(
                list(pools[i]), len(owners_of[pools[i]]),
                owners_of[pools[i]].index(i),
            )
            for i in range(nthreads)
        ]
    elif policy is Policy.MEM_LLC_PART:
        # One LLC share per node group, shared by the group's threads:
        # each distinct pool is split among the groups whose threads use
        # it, and a group's share is the union over its threads' pools.
        groups_of: dict[tuple[int, ...], list[int]] = {}
        for i, pool in enumerate(pools):
            owners = groups_of.setdefault(pool, [])
            if node_of[i] not in owners:
                owners.append(node_of[i])
        shares: dict[int, set[int]] = {g: set() for g in group_order}
        for pool, owners in groups_of.items():
            for idx, g in enumerate(owners):
                shares[g].update(_split_strided(list(pool), len(owners), idx))
        llcs = [tuple(sorted(shares[node_of[i]])) for i in range(nthreads)]
    else:
        llcs = [()] * nthreads

    assignments = [
        ColorAssignment(mem_colors=mems[i], llc_colors=llcs[i])
        for i in range(nthreads)
    ]
    return assignments


def _llc_pools(
    mems: list[tuple[int, ...]], mapping: AddressMapping
) -> list[tuple[int, ...]]:
    """Per-thread compatible LLC pools given per-thread bank shares."""
    all_colors = tuple(range(mapping.num_llc_colors))
    pools: list[tuple[int, ...]] = []
    for mem in mems:
        if not mem:
            pools.append(all_colors)
        else:
            pools.append(tuple(sorted({
                lc for bc in mem for lc in mapping.compatible_llc_colors(bc)
            })))
    return pools


def plan_is_disjoint(assignments: list[ColorAssignment]) -> tuple[bool, bool]:
    """Check pairwise disjointness of (mem, llc) color sets across threads.

    Returns ``(mem_disjoint, llc_disjoint)``; shared-by-design policies
    (the "(part)" variants) legitimately report False on one axis.
    """
    seen_mem: set[int] = set()
    seen_llc: set[int] = set()
    mem_ok = llc_ok = True
    for a in assignments:
        if seen_mem & set(a.mem_colors):
            mem_ok = False
        if seen_llc & set(a.llc_colors):
            llc_ok = False
        seen_mem |= set(a.mem_colors)
        seen_llc |= set(a.llc_colors)
    return mem_ok, llc_ok
