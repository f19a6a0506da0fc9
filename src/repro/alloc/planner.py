"""Color planners: carve the machine's colors across a thread team.

A planning rule is a :class:`Recipe`: one bank mode crossed with one LLC
mode.  The paper's partitioning rules (§V-B) are six of the nine
recipes (:data:`RECIPES`):

* **MEM / controller-aware bank coloring** (bank ``private``) — each
  thread owns an equal, disjoint share of its *local* node's bank
  colors; threads pinned to the same node split that node's colors.
* **LLC coloring** (LLC ``private``) — the 32 LLC colors are split
  evenly and disjointly over all threads ("for 16 threads each thread
  has two private LLC colors; for 8 threads, four").
* **MEM+LLC(part)** (bank ``private``, LLC ``group``) — private bank
  colors, but LLC colors are owned by *groups* (one group per node):
  "for 16 threads we create 4 thread groups, each with its private 8 LLC
  colors shared by the 4 threads in this group".
* **LLC+MEM(part)** (bank ``node``, LLC ``private``) — private LLC
  colors, bank colors shared group-wide: every thread of a node may use
  all of that node's bank colors.
* **BPM** — not a recipe; see :mod:`repro.alloc.bpm`.

The policy search's grid (:meth:`repro.search.space.SearchSpace.grid`)
plans all nine recipes through :func:`plan_colors`.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.alloc.bpm import bpm_assignments
from repro.alloc.policies import Policy
from repro.machine.address import AddressMapping
from repro.machine.topology import MachineTopology

#: Bank modes: uncolored; a private share of the local node's bank
#: colors; all of the local node's bank colors (node-shared).
BANK_MODES = ("none", "private", "node")
#: LLC modes: uncolored; a private strided share of the thread's
#: compatible LLC pool; one strided share per node group, shared by the
#: group's threads.
LLC_MODES = ("none", "private", "group")


@dataclass(frozen=True)
class Recipe:
    """A planning rule: a bank mode (:data:`BANK_MODES`) crossed with an
    LLC mode (:data:`LLC_MODES`)."""

    bank: str
    llc: str

    @property
    def label(self) -> str:
        return f"mem={self.bank}/llc={self.llc}"


#: Every recipe, bank mode major.
ALL_RECIPES = tuple(Recipe(b, lc) for b in BANK_MODES for lc in LLC_MODES)

#: The named policies that are recipes (BPM is planned by
#: :func:`~repro.alloc.bpm.bpm_assignments`).
RECIPES: dict[Policy, Recipe] = {
    Policy.BUDDY: Recipe("none", "none"),
    Policy.LLC: Recipe("none", "private"),
    Policy.MEM: Recipe("private", "none"),
    Policy.MEM_LLC: Recipe("private", "private"),
    Policy.MEM_LLC_PART: Recipe("private", "group"),
    Policy.LLC_MEM_PART: Recipe("node", "private"),
}


@dataclass(frozen=True)
class ColorAssignment:
    """Colors for one thread; empty tuples mean "uncolored" on that axis."""

    mem_colors: tuple[int, ...] = field(default=())
    llc_colors: tuple[int, ...] = field(default=())

    @property
    def colored(self) -> bool:
        return bool(self.mem_colors) or bool(self.llc_colors)


def _split_strided(items: Sequence[int], parts: int, index: int) -> tuple[int, ...]:
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


def _split_evenly(items: Sequence[int], parts: int, index: int) -> tuple[int, ...]:
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
        policy: the coloring policy — a named :class:`Policy` (planned by
            its :data:`RECIPES` row, or by BPM's rule), a
            :class:`Recipe`, or a structured
            :class:`~repro.alloc.custom.CustomPolicy` whose explicit
            per-thread assignments are validated against the machine and
            returned as-is.
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

    if policy is Policy.BPM:
        return bpm_assignments(cores, mapping)
    if isinstance(policy, Policy):
        policy = RECIPES[policy]
    if not isinstance(policy, Recipe):
        # Structured policy: an explicit plan, not a planning rule.
        policy.validate(mapping, topology, nthreads=nthreads)
        return list(policy.assignments)

    # Group threads by their local node, preserving thread order.  Node
    # groups in first-appearance order are the paper's "thread groups".
    node_of = [topology.node_of_core(c) for c in cores]
    peers_by_node: dict[int, list[int]] = {}
    for i, node in enumerate(node_of):
        peers_by_node.setdefault(node, []).append(i)

    # Bank colors first: the LLC split below depends on them.
    mems: list[tuple[int, ...]] = []
    for i, node in enumerate(node_of):
        if policy.bank == "private":
            peers = peers_by_node[node]
            mems.append(_split_evenly(
                mapping.bank_colors_of_node(node), len(peers), peers.index(i)
            ))
        elif policy.bank == "node":
            mems.append(tuple(mapping.bank_colors_of_node(node)))
        else:
            mems.append(())

    # LLC colors are split within each thread's *compatible pool* — the
    # LLC colors its bank share can physically host (all colors when the
    # thread holds no bank colors).  On mappings where every thread's
    # bank share spans all shared bank/LLC bit values (the Opteron), the
    # pool is the whole color space and this degenerates to the paper's
    # plain strided split over all threads; on schemes that pin LLC-slice
    # bits per thread (e.g. RoCoRaBaCh's channel bits) each pool's
    # owners split only their own pool, keeping shares non-empty,
    # compatible and pairwise disjoint.
    llcs: list[tuple[int, ...]] = [()] * nthreads
    if policy.llc == "private":
        # Threads with the same pool split that pool.
        pools = _llc_pools(mems, mapping)
        owners_of: dict[tuple[int, ...], list[int]] = {}
        for i, pool in enumerate(pools):
            owners_of.setdefault(pool, []).append(i)
        llcs = [
            _split_strided(
                pools[i], len(owners_of[pools[i]]), owners_of[pools[i]].index(i)
            )
            for i in range(nthreads)
        ]
    elif policy.llc == "group":
        # One LLC share per node group, shared by the group's threads:
        # each distinct pool is split among the groups whose threads use
        # it, and a group's share is the union over its threads' pools.
        pools = _llc_pools(mems, mapping)
        groups_of: dict[tuple[int, ...], list[int]] = {}
        for i, pool in enumerate(pools):
            owners = groups_of.setdefault(pool, [])
            if node_of[i] not in owners:
                owners.append(node_of[i])
        shares: dict[int, set[int]] = {g: set() for g in peers_by_node}
        for pool, owners in groups_of.items():
            for idx, g in enumerate(owners):
                shares[g].update(_split_strided(pool, len(owners), idx))
        llcs = [tuple(sorted(shares[node])) for node in node_of]

    return [ColorAssignment(mem_colors=m, llc_colors=lc)
            for m, lc in zip(mems, llcs)]


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
