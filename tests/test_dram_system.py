"""Unit tests for the DRAM system facade and interconnect."""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.alloc.policies import Policy
from repro.cache.hierarchy import CacheHierarchy
from repro.core.session import ColoredTeam
from repro.core.tintmalloc import TintMalloc
from repro.dram.interconnect import Interconnect
from repro.dram.system import DramSystem, RowKind
from repro.dram.timing import DramTiming
from repro.kernel.kernel import Kernel
from repro.machine.presets import PLATFORMS, platform
from repro.sanitize.fuzz import FUZZ_PRESETS
from repro.sim.barrier import Section
from repro.sim.engine import Engine, MemorySystem
from repro.sim.trace import Trace
from repro.util.units import MIB
from tests.test_sim_engine_equivalence import PLATFORM_GRID

T = DramTiming()


@pytest.fixture
def system(tiny):
    return DramSystem(tiny.mapping, tiny.topology, T)


def addr_on(mapping, node, bank=0, rest=0):
    return mapping.compose(node, 0, 0, bank, rest)


def line_on(mapping, node, bank=0, rest=0):
    """The line number of :func:`addr_on`'s address (write-backs take
    line numbers)."""
    return addr_on(mapping, node, bank, rest) >> mapping.line_bits


class TestLocality:
    def test_local_cheaper_than_remote(self, tiny, system):
        local = addr_on(tiny.mapping, node=0)
        remote = addr_on(tiny.mapping, node=1)
        r_local = system.access(local, core=0, now=0.0)
        r_remote = system.access(remote, core=0, now=10_000.0)
        assert r_local.hops == 0
        assert r_remote.hops == 1
        assert r_remote.latency > r_local.latency

    def test_remote_penalty_is_round_trip(self, tiny, system):
        remote = addr_on(tiny.mapping, node=1)
        r = system.access(remote, core=0, now=0.0)
        local_equiv = system.access(
            addr_on(tiny.mapping, node=0), core=0, now=50_000.0
        )
        expected_extra = 2 * T.hop_latency  # same socket, one hop each way
        assert r.latency - local_equiv.latency == pytest.approx(expected_extra)

    def test_stats_track_remote_fraction(self, tiny, system):
        system.access(addr_on(tiny.mapping, 0), core=0, now=0.0)
        system.access(addr_on(tiny.mapping, 1), core=0, now=1000.0)
        assert system.stats.local_accesses == 1
        assert system.stats.remote_accesses == 1
        assert system.stats.remote_fraction == 0.5


class TestBankBehaviour:
    def test_row_hit_within_page(self, tiny, system):
        base = addr_on(tiny.mapping, 0)
        system.access(base, 0, 0.0)
        r = system.access(base + 64, 0, 1000.0)
        assert r.row_kind is RowKind.HIT

    def test_conflict_across_pages_same_bank(self, tiny, system):
        mapping = tiny.mapping
        a = mapping.compose(0, 0, 0, 0, 0)
        # Same bank, different row: bump a free (non-field) frame bit.
        b = None
        for rest in range(1, 64):
            cand = mapping.compose(0, 0, 0, 0, rest << 12)
            if mapping.row_of(cand) != mapping.row_of(a):
                b = cand
                break
        assert b is not None
        system.access(a, 0, 0.0)
        r = system.access(b, 0, 1000.0)
        assert r.row_kind is RowKind.CONFLICT

    def test_different_banks_independent(self, tiny, system):
        a = addr_on(tiny.mapping, 0, bank=0)
        b = addr_on(tiny.mapping, 0, bank=1)
        system.access(a, 0, 0.0)
        r = system.access(b, 0, 1.0)
        # New bank: closed miss, not conflict.
        assert r.row_kind is RowKind.MISS

    def test_writeback_counts(self, tiny, system):
        system.writeback(line_on(tiny.mapping, 0), now=0.0)
        assert system.stats.writebacks == 1


@pytest.mark.parametrize("preset", sorted(PLATFORMS))
def test_bank_index_routes_every_frame(preset):
    """Every DRAM route reads the frame's bank color from the mapping's
    per-frame table, and the color alone fixes the node and the channel
    bus: a table or a mapping scheme that breaks either must fail here."""
    spec = PLATFORMS[preset]()
    mapping = spec.mapping
    dram = DramSystem(mapping, spec.topology, T)
    table = mapping.frame_color_table()[0]
    paddrs = np.arange(mapping.num_frames, dtype=np.int64) << mapping.page_bits

    def field(name):
        out = np.zeros(paddrs.shape, dtype=np.int64)
        for i, p in enumerate(mapping.fields[name]):
            out |= ((paddrs >> p) & 1) << i
        return out

    node, channel = field("node"), field("channel")
    bank_color = (
        (node * mapping.num_channels + channel) * mapping.num_ranks
        + field("rank")
    ) * mapping.num_banks + field("bank")
    assert np.array_equal(table, bank_color)
    assert np.array_equal(np.asarray(dram.frame_bank), table)
    assert np.array_equal(np.asarray(dram._bank_node)[table], node)
    assert np.array_equal(
        np.asarray(dram._bank_chan)[table],
        node * mapping.num_channels + channel,
    )
    # Built once per mapping instance, and nobody can write to it.
    assert mapping.frame_color_table()[0] is table
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0] = 1
    with pytest.raises(TypeError):
        dram.frame_bank[0] = 1


def test_bank_index_table_shared_with_kernel(tiny):
    """The kernel adopts the machine's mapping once the PCI probe agrees,
    so its frame pool and the DRAM system share one color table."""
    kernel = Kernel(tiny)
    dram = DramSystem(tiny.mapping, tiny.topology, T)
    bank, llc = tiny.mapping.frame_color_table()
    assert kernel.mapping is tiny.mapping
    assert kernel.pool.bank_color is bank
    assert kernel.pool.llc_color is llc
    assert np.shares_memory(np.asarray(dram.frame_bank), bank)


def test_bank_index_demand_and_writeback_share_a_bank(tiny, system):
    """A demand access and a write-back to one frame reach the same bank
    color, and only that bank's occupancy moves."""
    addr = addr_on(tiny.mapping, node=1, bank=3)
    bc = tiny.mapping.frame_bank_color(addr >> tiny.mapping.page_bits)
    first = system.access(addr, core=0, now=0.0)
    assert first.bank_color == bc
    assert system.bank_misses[bc] == 1
    system.writeback((addr + 64) >> tiny.mapping.line_bits, now=1e4)
    busy = system.bank_busy
    assert [b > 0.0 for b in busy] == [i == bc for i in range(len(busy))]


def test_bank_index_plan_rejects_out_of_range_frame(tiny):
    """The plan gathers bank colors from the frame table; a frame number
    outside memory raises rather than wrapping to another frame."""
    tm = TintMalloc(kernel=Kernel(tiny))
    team = ColoredTeam.create(tm, [0], Policy.BUDDY)
    engine = Engine(team, MemorySystem.for_machine(tiny))
    va = team.handles[0].malloc(4096)
    vpn = va >> tiny.mapping.page_bits
    trace = Trace(vaddrs=np.array([va], dtype=np.int64),
                  writes=np.zeros(1, dtype=bool), think_ns=1.0)
    section = Section("parallel", {0: trace})
    for bad in (tiny.mapping.num_frames, -1):
        engine.space.page_table[vpn] = bad
        with pytest.raises(ValueError, match="outside physical memory"):
            engine._batch_plan(section)


class TestQueueWaits:
    def test_contention_raises_queue_wait(self, tiny, system):
        addr = addr_on(tiny.mapping, 0)
        first = system.access(addr, 0, 0.0)
        second = system.access(addr + 64, 1, 0.0)
        assert first.queue_wait == 0.0
        assert second.queue_wait > 0.0

    def test_controller_and_channel_occupancy(self, tiny, system):
        """Two requests issued together to two banks behind one channel:
        the second queues ``ctrl_service`` at the controller, then for
        the rest of the first's channel occupancy."""
        system.access(addr_on(tiny.mapping, 0, bank=0), 0, 0.0)
        second = system.access(addr_on(tiny.mapping, 0, bank=1), 0, 0.0)
        s = system.stats
        assert s.wait_ctrl == T.ctrl_service
        assert s.wait_chan == T.channel_service - T.ctrl_service
        assert s.wait_bank == 0.0
        assert second.queue_wait == T.channel_service

    def test_writeback_occupies_the_channel(self, tiny, system):
        """A posted write-back holds the channel bus in full: a demand
        reaching the bus before it drains waits for it."""
        system.writeback(line_on(tiny.mapping, 0, bank=0), now=5.0)
        r = system.access(addr_on(tiny.mapping, 0, bank=1), 0, 0.0)
        assert r.queue_wait == 5.0 + T.channel_service - T.ctrl_overhead

    def test_link_wait_never_negative(self, tiny, system):
        """An unqueued mesh crossing waits 0, also where rounding leaves
        ``(now + hop) - now - hop`` a hair below 0."""
        now = 2.4
        assert (now + T.hop_latency) - now - T.hop_latency < 0.0
        r = system.access(addr_on(tiny.mapping, 1), core=0, now=now)
        assert r.queue_wait == 0.0
        assert system.stats.wait_link == 0.0

    def test_wait_components_sum(self, tiny, system):
        for i in range(10):
            system.access(addr_on(tiny.mapping, 0) + 64 * i, 0, 0.0)
        s = system.stats
        total = s.wait_link + s.wait_ctrl + s.wait_chan + s.wait_bank
        assert total == pytest.approx(s.total_queue_wait)


class TestFarTier:
    """The reference path's disaggregated tier, on an idle machine whose
    node 1 sits behind the network and a compute-side DRAM cache."""

    @pytest.fixture
    def far(self):
        machine = FUZZ_PRESETS["tiny_disagg"](16 * MIB)
        dram = DramSystem(
            machine.mapping, machine.topology, T, remote=machine.remote
        )
        return dram, addr_on(machine.mapping, node=1)

    @staticmethod
    def _cached(dram, addr) -> bool:
        line = addr >> dram.mapping.line_bits
        cache = dram._remote_caches[1]
        return line in cache._sets[line & (cache._num_sets - 1)]

    @staticmethod
    def _banks(dram) -> list:
        return [
            list(state) for state in (
                dram.bank_busy, dram.bank_row, dram.bank_epoch,
                dram.bank_hits, dram.bank_misses, dram.bank_conflicts,
            )
        ]

    @staticmethod
    def _set_lines(dram, n) -> list:
        """``n`` lines of the far node that share one DRAM-cache set."""
        mapping = dram.mapping
        mask = dram._remote_caches[1]._num_sets - 1
        per_frame = 1 << (mapping.page_bits - mapping.line_bits)
        far_frames = np.flatnonzero(
            np.asarray(dram._bank_node)[np.asarray(dram.frame_bank)] == 1
        )
        lines: list = []
        for frame in far_frames.tolist():
            line = frame * per_frame
            if not lines or line & mask == lines[0] & mask:
                lines.append(line)
            if len(lines) == n:
                return lines
        raise AssertionError("far node has too few frames")

    def _fill_then_evict(self, dram, use_first) -> list:
        """Fill one DRAM-cache set, let ``use_first`` touch its oldest
        line, then miss once more into the set; returns the lines."""
        bits = dram.mapping.line_bits
        lines = self._set_lines(dram, dram.remote.cache_ways + 1)
        now = 0.0
        for line in lines[:-1]:
            dram.access(line << bits, core=0, now=now)
            now += 1000.0
        use_first(lines[0], now)
        dram.access(lines[-1] << bits, core=0, now=now + 1000.0)
        return lines

    def test_hit_refreshes_the_lru_order(self, far):
        """A DRAM-cache hit promotes its line: the next fill into the
        full set evicts the line filled after it."""
        dram, _ = far
        bits = dram.mapping.line_bits
        lines = self._fill_then_evict(
            dram, lambda line, now: dram.access(line << bits, 0, now)
        )
        assert dram.stats.remote_cache_hits == 1
        assert self._cached(dram, lines[0] << bits)
        assert not self._cached(dram, lines[1] << bits)

    def test_absorbed_writeback_refreshes_the_lru_order(self, far):
        """A write-back the DRAM cache absorbs promotes its line too."""
        dram, _ = far
        bits = dram.mapping.line_bits
        lines = self._fill_then_evict(dram, dram.writeback)
        assert dram.stats.writebacks == 1
        assert self._cached(dram, lines[0] << bits)
        assert not self._cached(dram, lines[1] << bits)

    def test_prefetch_fill_pays_the_link_not_the_dram_cache(self, far):
        """A prefetch to the far node occupies its network link and one
        bank, bypasses the compute-side DRAM cache, and leaves the
        demand counters alone."""
        dram, addr = far
        tier = dram.remote
        dram.prefetch_fill(addr, core=0, now=0.0)
        assert dram._net_busy[1] == tier.network_service_ns
        assert not self._cached(dram, addr)
        bc = dram.frame_bank[addr >> dram.mapping.page_bits]
        assert dram.bank_misses[bc] == 1
        assert sum(dram.bank_misses) + sum(dram.bank_hits) + sum(
            dram.bank_conflicts
        ) == 1
        assert dram.bank_busy[bc] == tier.network_ns + T.ctrl_overhead + T.row_miss
        stats = dram.stats
        assert stats.prefetch_fills == 1
        assert stats.accesses == 0
        assert stats.remote_cache_hits == stats.remote_cache_misses == 0

    def test_prefetch_stream_to_the_far_node(self):
        """Through a prefetching hierarchy, a far-node stream's prefetch
        fills cross the link; the DRAM cache holds only demand lines."""
        machine = FUZZ_PRESETS["tiny_disagg"](16 * MIB)
        dram = DramSystem(
            machine.mapping, machine.topology, T, remote=machine.remote
        )
        h = CacheHierarchy(machine.topology, dram, prefetch=True)
        base = addr_on(machine.mapping, node=1)
        line = machine.mapping.line_bytes
        for i in range(32):
            h.access(base + i * line, core=0, now=float(i) * 1000)
        stats = dram.stats
        assert stats.prefetch_fills > 0
        assert dram._net_busy[1] > 0.0
        held = sum(len(s) for s in dram._remote_caches[1]._sets)
        assert held == stats.remote_cache_misses

    def test_cold_miss_crosses_the_network(self, far):
        dram, addr = far
        tier = dram.remote
        r = dram.access(addr, core=0, now=0.0)
        assert r.latency == 2 * tier.network_ns + T.ctrl_overhead + T.row_miss
        assert r.hops == 1
        assert r.row_kind is RowKind.MISS
        assert dram.stats.remote_cache_misses == 1
        assert dram.stats.remote_accesses == 1
        assert self._cached(dram, addr)

    def test_repeat_is_a_dram_cache_hit(self, far):
        dram, addr = far
        dram.access(addr, core=0, now=0.0)
        banks = self._banks(dram)
        net_busy = dict(dram._net_busy)
        r = dram.access(addr, core=0, now=1000.0)
        assert r.latency == dram.remote.cache_hit_ns
        assert r.hops == 0 and r.queue_wait == 0.0
        assert dram.stats.remote_cache_hits == 1
        assert dram.stats.row_hits == 1
        assert self._banks(dram) == banks
        assert dram._net_busy == net_busy

    def test_writeback_to_cached_line_is_absorbed(self, far):
        dram, addr = far
        dram.access(addr, core=0, now=0.0)
        banks = self._banks(dram)
        net_busy = dict(dram._net_busy)
        dram.writeback(addr >> dram.mapping.line_bits, now=1000.0)
        assert dram.stats.writebacks == 1
        assert self._banks(dram) == banks
        assert dram._net_busy == net_busy

    def test_writeback_to_uncached_line_queues_on_the_link(self, far):
        dram, addr = far
        tier = dram.remote
        dram.writeback(addr >> dram.mapping.line_bits, now=1000.0)
        assert dram.stats.writebacks == 1
        assert dram._net_busy[1] == 1000.0 + tier.network_service_ns
        assert not self._cached(dram, addr)
        # The posted write lands at the far bank one network trip later.
        bc = dram.frame_bank[addr >> dram.mapping.page_bits]
        assert dram.bank_busy[bc] > 1000.0 + tier.network_ns
        assert dram.stats.remote_cache_misses == 0


@lru_cache(maxsize=None)
def _row_tag_machine(preset):
    if preset == "tiny_disagg":
        return FUZZ_PRESETS[preset](16 * MIB)
    return platform(preset, 256 * MIB)


class TestRowTag:
    @pytest.mark.parametrize("preset", [*PLATFORM_GRID, "tiny_disagg"])
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_tag_names_the_row_within_a_bank(self, preset, data):
        """The demand stage tags the row it opens with the line's bits
        above the row start.  For two lines of one bank color the tags
        are equal exactly when :meth:`AddressMapping.row_of` is, so the
        open-row rule compares DRAM rows, not some coarser or finer
        slice of the address.  A drawn line is paired with a line of
        its own frame, of every frame one flipped frame bit away in the
        same bank (rows that differ in a single bit) and of any frame
        of the bank."""
        machine = _row_tag_machine(preset)
        mapping = machine.mapping
        table = mapping.frame_color_table()[0]
        page_line_shift = mapping.page_bits - mapping.line_bits
        offset = st.integers(0, (1 << page_line_shift) - 1)
        frame = data.draw(st.integers(0, mapping.num_frames - 1))
        bc = int(table[frame])
        same_bank = np.flatnonzero(table == bc)
        partners = [frame, int(same_bank[
            data.draw(st.integers(0, len(same_bank) - 1))
        ])]
        for bit in range((mapping.num_frames - 1).bit_length()):
            if table[frame ^ (1 << bit)] == bc:
                partners.append(frame ^ (1 << bit))

        def tag_and_row(f):
            line = (f << page_line_shift) | data.draw(offset)
            # A fresh system per line: no DRAM-cache hit skips the bank.
            dram = DramSystem(mapping, machine.topology, T)
            dram.demand(bc, line, 0, 0.0, False)
            return dram.bank_row[bc], mapping.row_of(line << mapping.line_bits)

        tag, row = tag_and_row(frame)
        assert tag is not None
        for f in partners:
            other_tag, other_row = tag_and_row(f)
            assert (other_tag == tag) == (other_row == row), (frame, f)


class TestInterconnect:
    def test_local_passthrough(self, tiny):
        ic = Interconnect(tiny.topology, T)
        arrival, hops = ic.traverse(core=0, node=0, now=123.0)
        assert (arrival, hops) == (123.0, 0)
        assert ic.remote_transfers == 0

    def test_remote_adds_propagation(self, tiny):
        ic = Interconnect(tiny.topology, T)
        arrival, hops = ic.traverse(core=0, node=1, now=0.0)
        assert hops == 1
        assert arrival == pytest.approx(T.hop_latency)

    def test_link_queueing(self, tiny):
        ic = Interconnect(tiny.topology, T)
        a1, _ = ic.traverse(0, 1, 0.0)
        a2, _ = ic.traverse(0, 1, 0.0)  # same directed path, same instant
        assert a2 == pytest.approx(a1 + T.link_service)

    def test_cross_socket_factor(self):
        spec = __import__("repro.machine.presets", fromlist=["opteron_6128"]).opteron_6128()
        ic = Interconnect(spec.topology, T)
        same_socket, _ = ic.traverse(0, 1, 0.0)
        cross_socket, _ = ic.traverse(0, 2, 0.0)
        # 2 hops * factor 2 vs 1 hop * factor 1.
        assert cross_socket == pytest.approx(same_socket * 4)
