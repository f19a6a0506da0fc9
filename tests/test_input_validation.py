"""Every constructor and entry point rejects malformed input by name.

One case per guard: the call, the exception it must raise, and a regex
of the message.  The guards sit where a hand-built preset, a stored
policy or genome, or a CLI argument enters the simulator; each raise
here is a branch no well-formed run reaches.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.alloc.custom import CustomPolicy
from repro.alloc.planner import ColorAssignment
from repro.cache.hierarchy import CacheHierarchy
from repro.dram.remote import RemoteTier
from repro.dram.system import DramSystem
from repro.kernel import mmapi
from repro.kernel.buddy import BuddyAllocator
from repro.kernel.colorlist import ColorMatrix
from repro.kernel.frame import FramePool
from repro.kernel.kernel import Kernel
from repro.kernel.task import TaskStruct
from repro.machine.address import AddressMapping, MappingScheme
from repro.machine.pci import (
    REG_CS_MASK,
    encode_config_space,
    probe_address_mapping,
)
from repro.machine.presets import opteron_6128, platform, tiny_machine
from repro.obs.metrics import Histogram
from repro.obs.observer import Observer
from repro.search.drivers import SearchSettings
from repro.search.report import replay_front
from repro.search.space import Genome
from repro.service.client import ServiceClient
from repro.util.units import MIB
from repro.workloads.registry import get_workload

TINY = tiny_machine()
#: The Opteron's topology: 128 B lines where the tiny machine has 64 B.
OPTERON_TOPOLOGY = opteron_6128(128 * MIB).topology
FIELDS = {"node": (29,), "channel": (20,), "rank": (21,), "bank": (22, 23)}


def _mapping(**overrides) -> AddressMapping:
    kwargs = dict(total_bits=30, line_bits=6, page_bits=12, fields=FIELDS,
                  llc_color_positions=(12, 13))
    kwargs.update(overrides)
    return AddressMapping(**kwargs)


def _scheme(token: str) -> AddressMapping:
    return MappingScheme("bad", ("channel", token)).build(
        total_bits=30, node_bits=1, channel_bits=1, rank_bits=0,
        bank_bits=2, llc_color_bits=2, line_bits=6,
    )


def _wide(field: str) -> AddressMapping:
    """A 40-bit mapping whose ``field`` has 9 bits, one more than the
    PCI registers can describe."""
    fields = {"node": (39,), "channel": (38,), "rank": (36,), "bank": (37,)}
    fields[field] = tuple(range(20, 29))
    return _mapping(total_bits=40, fields=fields)


def _policy(**overrides) -> CustomPolicy:
    kwargs = dict(name="p", assignments=(ColorAssignment((0,), (0,)),))
    kwargs.update(overrides)
    return CustomPolicy(**kwargs)


def _policy_json(**overrides) -> dict:
    doc = _policy().to_json()
    doc.update(overrides)
    return doc


def _double_free_over_a_free_block():
    buddy = BuddyAllocator(0, 4)
    buddy.alloc(1)  # frames 0-1; frames 2-3 stay free
    buddy.free(0, 2)  # frames 0-3 include the free block at 2


def _double_alloc():
    pool = FramePool(TINY.mapping)
    pool.mark_allocated(0, owner=1)
    pool.mark_allocated(0, owner=2)


def _bad_color_directive():
    kernel = Kernel(TINY)
    task = kernel.create_task(kernel.create_process(), core=0)
    kernel.sys_mmap(task, 7 << mmapi.MODE_SHIFT, 0, mmapi.COLOR_ALLOC)


def _orphan_task():
    kernel = Kernel(TINY)
    kernel.sys_mmap(TaskStruct(tid=99, core=0), 0, 4096, 3)


def _underpopulated_pci():
    pci = encode_config_space(TINY.mapping)
    pci.write32(REG_CS_MASK, 4)  # claims more rank bits than are written
    probe_address_mapping(pci)


#: id -> (call, exception, message regex)
CASES = {
    # alloc
    "policy-name": (lambda: _policy(name=""), ValueError, "non-empty name"),
    "policy-llc-range": (
        lambda: _policy(assignments=(ColorAssignment((0,), (999,)),))
        .validate(TINY.mapping, TINY.topology),
        ValueError, "LLC color 999 out of range"),
    "policy-json-type": (lambda: CustomPolicy.from_json([1]), ValueError,
                         "must be a dict"),
    "policy-json-kind": (lambda: CustomPolicy.from_json(_policy_json(type="x")),
                         ValueError, "unknown structured policy type"),
    "policy-json-lengths": (
        lambda: CustomPolicy.from_json(_policy_json(llc=[[0], [1]])),
        ValueError, "mem colors for 1 threads but llc for 2"),
    # cache / dram
    "hierarchy-line-size": (
        lambda: CacheHierarchy(
            OPTERON_TOPOLOGY,
            DramSystem(TINY.mapping, TINY.topology),
        ), ValueError, "LLC line size differs"),
    "remote-none": (lambda: RemoteTier(remote_nodes=()), ValueError,
                    "at least one remote node"),
    "remote-duplicate": (lambda: RemoteTier(remote_nodes=(1, 1)), ValueError,
                         "duplicate node id"),
    "remote-ways": (lambda: RemoteTier(remote_nodes=(1,), cache_lines=100),
                    ValueError, "multiple of cache_ways"),
    "remote-sets": (lambda: RemoteTier(remote_nodes=(1,), cache_lines=24),
                    ValueError, "power of two"),
    "dram-nodes": (
        lambda: DramSystem(TINY.mapping, OPTERON_TOPOLOGY),
        ValueError, "node count mismatch"),
    "dram-remote-node": (
        lambda: DramSystem(TINY.mapping, TINY.topology,
                           remote=RemoteTier(remote_nodes=(5,))),
        ValueError, "remote node 5 outside mapping"),
    # kernel
    "buddy-empty": (lambda: BuddyAllocator(0, 0), ValueError,
                    "num_frames must be positive"),
    "buddy-free-order": (lambda: BuddyAllocator(0, 4).free(0, 11), ValueError,
                         "order 11 out of range"),
    "buddy-double-free": (_double_free_over_a_free_block, ValueError,
                          "double free of block at frame 0"),
    "colors-no-constraint": (
        lambda: ColorMatrix(FramePool(TINY.mapping)).has_matching(None, None),
        ValueError, "at least one constraint"),
    "frame-colors-variant": (
        lambda: FramePool(_mapping(fields={**FIELDS, "bank": (8, 9)})),
        ValueError, "invariant colors"),
    "frame-node-not-top": (
        lambda: FramePool(_mapping(fields={**FIELDS, "node": (28,)})),
        ValueError, "not the top address bits"),
    "frame-double-alloc": (_double_alloc, ValueError, "double alloc"),
    "kernel-pci-probe": (
        lambda: Kernel(dataclasses.replace(
            TINY, pci=encode_config_space(tiny_machine(32 * MIB).mapping))),
        RuntimeError, "PCI probe disagrees"),
    "kernel-directive": (_bad_color_directive, ValueError,
                         "unknown color directive mode 7"),
    "kernel-orphan-task": (_orphan_task, ValueError,
                           "task 99 belongs to no process"),
    # machine
    "mapping-field-bit": (
        lambda: _mapping(fields={**FIELDS, "rank": (30,)}),
        ValueError, "rank bit 30 outside address width"),
    "mapping-llc-bit": (lambda: _mapping(llc_color_positions=(12, 40)),
                        ValueError, "LLC color bit 40 outside"),
    "mapping-compose": (lambda: TINY.mapping.compose(0, 0, 0, 99, 0),
                        ValueError, "bank=99 out of range"),
    "scheme-token": (lambda: _scheme("row"), ValueError,
                     "unknown token 'row'"),
    "scheme-width": (lambda: _scheme("bank:3"), ValueError,
                     "bank has only 2 bits left"),
    "pci-rank-width": (lambda: encode_config_space(_wide("rank")),
                       ValueError, "rank field too wide"),
    "pci-bank-width": (lambda: encode_config_space(_wide("bank")),
                       ValueError, "bank field too wide"),
    "pci-llc-gap": (
        lambda: encode_config_space(_mapping(llc_color_positions=(12, 14))),
        ValueError, "must be contiguous"),
    "pci-underpopulated": (_underpopulated_pci, RuntimeError,
                           "under-populated"),
    "spec-line-size": (
        lambda: dataclasses.replace(TINY, topology=dataclasses.replace(
            TINY.topology, l1=OPTERON_TOPOLOGY.l1, l2=OPTERON_TOPOLOGY.l2,
            llc=OPTERON_TOPOLOGY.llc)),
        ValueError, "disagree on line size"),
    "spec-colors-variant": (
        lambda: dataclasses.replace(
            TINY, mapping=dataclasses.replace(
                TINY.mapping, llc_color_positions=(8, 9))),
        ValueError, "single color"),
    "spec-remote-outside": (
        lambda: dataclasses.replace(TINY, remote=RemoteTier(remote_nodes=(4,))),
        ValueError, r"remote nodes \[4\] outside"),
    "spec-remote-all": (
        lambda: dataclasses.replace(
            TINY, remote=RemoteTier(remote_nodes=(0, 1))),
        ValueError, "at least one node must stay local"),
    "platform-unknown": (lambda: platform("nope"), ValueError,
                         "unknown platform 'nope'"),
    "topology-dims": (
        lambda: dataclasses.replace(TINY.topology, num_sockets=0),
        ValueError, "dimensions must be positive"),
    "topology-socket": (lambda: TINY.topology.nodes_of_socket(5), ValueError,
                        "socket 5 out of range"),
    # obs
    "histogram-sub": (lambda: Histogram("h", (), sub=0), ValueError,
                      "sub-bucket count"),
    "observer-interval": (lambda: Observer(sample_interval_ns=-1), ValueError,
                          "sample interval"),
    # search
    "search-budget": (lambda: SearchSettings(budget=0), ValueError,
                      "budget must be >= 1"),
    "search-promote": (lambda: SearchSettings(promote_fraction=0.0),
                       ValueError, "promote_fraction"),
    "search-reps": (lambda: SearchSettings(screen_reps=4, full_reps=3),
                    ValueError, "screen_reps <= full_reps"),
    "genome-lengths": (lambda: Genome(mem=((0,),), llc=()), ValueError,
                       "mem genes for 1 threads, llc for 0"),
    "genome-schema": (lambda: Genome.from_json({"schema": 0}), ValueError,
                      "genome schema 0"),
    "search-log-schema": (lambda: replay_front({"schema": 0}, None),
                          ValueError, "search log schema 0"),
    # service
    "scheduler-shards": (lambda: ServiceClient(shards=0), ValueError,
                         "shards must be >= 1"),
    "scheduler-executor": (lambda: ServiceClient(executor="fleet"), ValueError,
                           "unknown executor 'fleet'"),
    # workloads
    **{
        f"spmd-{field}": (
            lambda field=field, value=value: dataclasses.replace(
                get_workload("lbm"), **{field: value}),
            ValueError, match,
        )
        for field, value, match in (
            ("pattern", "zigzag", "unknown pattern 'zigzag'"),
            ("master_init_fraction", 1.5, "master_init_fraction"),
            ("shared_fraction", 1.0, "shared_fraction"),
            ("write_fraction", -0.1, "write_fraction"),
            ("per_thread_bytes", 0, "sizes must be positive"),
        )
    },
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_rejected(case):
    call, exc, match = CASES[case]
    with pytest.raises(exc, match=match):
        call()
