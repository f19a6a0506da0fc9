"""Figs. 7-9 — the motivating micro-effects, measured directly.

* Fig. 7: a task whose frames live on a remote node pays the remote
  controller penalty on every DRAM access.
* Fig. 8: two tasks interleaving on one bank destroy each other's row
  buffer locality.
* Fig. 9: a task's LLC miss rate rises when another task evicts its lines
  from shared LLC sets — and is restored by disjoint LLC colors.
"""

import numpy as np
import pytest

from repro.cache.cache import Cache
from repro.dram.system import ROW_HIT, DramSystem
from repro.dram.timing import DramTiming
from repro.machine.presets import opteron_6128_scaled
from repro.util.units import MIB

SPEC = opteron_6128_scaled(256 * MIB)
T = DramTiming()


# ------------------------------------------------------------------ Fig. 7
def mean_dram_latency(core: int, node: int, n: int = 256) -> float:
    dram = DramSystem(SPEC.mapping, SPEC.topology, T)
    total = 0.0
    t = 0.0
    for i in range(n):
        paddr = SPEC.mapping.compose(node, 0, 0, 0, i << 12)
        r = dram.access(paddr, core, t)
        total += r.latency
        t += 1000.0
    return total / n


def test_fig7_remote_node_penalty(benchmark):
    local = mean_dram_latency(core=0, node=0)
    same_socket = mean_dram_latency(core=0, node=1)
    cross_socket = mean_dram_latency(core=0, node=2)
    print(f"\nmean DRAM latency (ns): local={local:.1f} "
          f"same-socket={same_socket:.1f} cross-socket={cross_socket:.1f}")
    assert local < same_socket < cross_socket
    benchmark.pedantic(mean_dram_latency, args=(0, 2), rounds=1)


# ------------------------------------------------------------------ Fig. 8
def bank_hit_rate(interleaved: bool, n: int = 400) -> float:
    # Bank color 0 sits on node 0, local to core 0; the caller of the
    # demand stage counts its outcomes, so read the hits off the code.
    dram = DramSystem(SPEC.mapping, SPEC.topology, T)
    hits = 0
    t = 0.0
    for i in range(n):
        if interleaved:
            row = (100, 200)[i % 2]  # two tasks, two rows, one bank
        else:
            row = 100  # single task streaming its row
        _, code, _ = dram.demand(0, row, 0, 0, t, False)
        hits += code in ROW_HIT
        t += 100.0
    return hits / n


def test_fig8_bank_interleaving_kills_row_hits(benchmark):
    alone = bank_hit_rate(interleaved=False)
    shared = bank_hit_rate(interleaved=True)
    print(f"\nrow-buffer hit rate: task alone={alone:.2f}, "
          f"two tasks interleaved={shared:.2f}")
    assert alone > 0.9
    assert shared < 0.1
    benchmark.pedantic(bank_hit_rate, args=(True,), rounds=1)


# ------------------------------------------------------------------ Fig. 9
def llc_miss_rate_with_intruder(disjoint_colors: bool) -> float:
    """Task A re-reads a working set while task B streams; return A's
    steady-state miss rate."""
    llc = Cache(SPEC.topology.llc, name="llc")
    mapping = SPEC.mapping
    page = mapping.page_bytes
    lines_per_page = page // mapping.line_bytes

    def page_lines(color: int, index: int):
        base = (index << 17) | (color << 12)  # distinct frames per color
        return [
            (base + j * mapping.line_bytes) >> 7 for j in range(lines_per_page)
        ]

    a_colors = [0, 1]
    b_colors = [2, 3] if disjoint_colors else [0, 1]
    a_set = [ln for i in range(24) for ln in page_lines(a_colors[i % 2], i)]
    b_stream = [
        ln for i in range(2000) for ln in page_lines(b_colors[i % 2], 1000 + i)
    ]

    # Warm A's working set.
    for ln in a_set:
        if not llc.lookup(ln, False):
            llc.insert(ln, False)
    # B streams (evicting whatever shares its sets).
    for ln in b_stream:
        if not llc.lookup(ln, False):
            llc.insert(ln, False)
    # A re-reads.
    misses = 0
    for ln in a_set:
        if not llc.lookup(ln, False):
            llc.insert(ln, False)
            misses += 1
    return misses / len(a_set)


def test_fig9_llc_interference_and_isolation(benchmark):
    shared = llc_miss_rate_with_intruder(disjoint_colors=False)
    isolated = llc_miss_rate_with_intruder(disjoint_colors=True)
    print(f"\nvictim LLC miss rate: shared colors={shared:.2f}, "
          f"disjoint colors={isolated:.2f}")
    assert shared > 0.9  # intruder wiped the working set
    assert isolated == pytest.approx(0.0)  # coloring isolates completely
    benchmark.pedantic(
        llc_miss_rate_with_intruder, args=(False,), rounds=1
    )
