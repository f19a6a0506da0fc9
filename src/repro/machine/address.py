"""Bit-level physical address mapping (paper §III-A, Fig. 5).

A memory controller decodes a physical address into *node (controller),
channel, rank, bank, row, column* via fixed bit fields.  TintMalloc's bank
color of a physical page is (Eq. 1):

    bc = ((node*NC + channel)*NR + rank)*NB + bank

(the paper's formula prints ``node*NN*NC`` but dimensional analysis and the
stated color count — 4 nodes x 2 channels x 2 ranks x 8 banks = 128 colors —
require the mixed-radix form above; we follow the color count).

The LLC color is a separate slice of set-index bits that lie inside the
page frame number (bits 12-16 on the Opteron 6128, 32 colors), so the OS
can choose it by frame selection.

:class:`AddressMapping` supports *arbitrary, possibly non-contiguous* bit
positions per DRAM field, as on real parts where e.g. the bank lives in
bits 15, 16 and 18.  DRAM field positions must be mutually disjoint; the
LLC color slice may overlap them (caches index independently of DRAM).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

#: Decode order used by the controller and by Eq. (1)'s mixed radix.
DRAM_FIELDS = ("node", "channel", "rank", "bank")


@dataclass(frozen=True)
class PhysicalLocation:
    """Fully decoded DRAM coordinates of a physical address."""

    node: int
    channel: int
    rank: int
    bank: int
    row: int


@dataclass(frozen=True)
class AddressMapping:
    """Physical address codec for one platform.

    Attributes:
        total_bits: physical address width; memory size is ``2**total_bits``.
        line_bits: log2 of the cache line size.
        page_bits: log2 of the page size (4 KiB -> 12).
        fields: DRAM field name -> bit positions, LSB of the field first.
            Keys must be exactly ``node, channel, rank, bank``.
        llc_color_positions: bit positions forming the LLC color.
        row_bits_start: physical bit where the DRAM row number begins; bits
            from there up to ``total_bits`` (excluding any field bits) form
            the row.  Rows only matter for row-buffer hit/miss decisions.
            It may not lie inside the line offset (``< line_bits``).
    """

    total_bits: int
    line_bits: int
    page_bits: int
    fields: Mapping[str, tuple[int, ...]]
    llc_color_positions: tuple[int, ...]
    row_bits_start: int = 0  # 0 means "first bit above all field bits"

    def __post_init__(self) -> None:
        if set(self.fields) != set(DRAM_FIELDS):
            raise ValueError(
                f"fields must be exactly {DRAM_FIELDS}, got {tuple(self.fields)}"
            )
        seen: set[int] = set()
        for name, positions in self.fields.items():
            for p in positions:
                if not 0 <= p < self.total_bits:
                    raise ValueError(f"{name} bit {p} outside address width")
                if p in seen:
                    raise ValueError(f"bit {p} used by two DRAM fields")
                seen.add(p)
        for p in self.llc_color_positions:
            if not 0 <= p < self.total_bits:
                raise ValueError(f"LLC color bit {p} outside address width")
        object.__setattr__(self, "fields", dict(self.fields))
        # Row: bits above the highest field bit, by default.
        start = self.row_bits_start or (max(seen) + 1 if seen else self.page_bits)
        if start < self.line_bits:
            raise ValueError(
                f"row bits start at bit {start}, inside the "
                f"{self.line_bits}-bit line offset: a row narrower than "
                f"a cache line"
            )
        object.__setattr__(self, "row_bits_start", start)
        # Memo of compatible_llc_colors (bank color -> tuple), per instance.
        object.__setattr__(self, "_compat_llc_rows", {})

    # --- widths / counts ------------------------------------------------------
    def field_width(self, name: str) -> int:
        """Number of address bits backing *name* ("node", "channel", ...)."""
        return len(self.fields[name])

    @property
    def num_nodes(self) -> int:
        """Memory nodes (NUMA domains) addressable by the node bits."""
        return 1 << self.field_width("node")

    @property
    def num_channels(self) -> int:
        """Memory channels per node."""
        return 1 << self.field_width("channel")

    @property
    def num_ranks(self) -> int:
        """Ranks per channel."""
        return 1 << self.field_width("rank")

    @property
    def num_banks(self) -> int:
        """Banks per rank (each with one open-row buffer)."""
        return 1 << self.field_width("bank")

    @property
    def num_bank_colors(self) -> int:
        """Total bank colors = nodes*channels*ranks*banks (128 on Opteron)."""
        return (
            self.num_nodes * self.num_channels * self.num_ranks * self.num_banks
        )

    @property
    def num_llc_colors(self) -> int:
        """Distinct LLC colors (one per combination of set-index page bits)."""
        return 1 << len(self.llc_color_positions)

    @property
    def bank_colors_per_node(self) -> int:
        """Bank colors owned by one node (channels * ranks * banks)."""
        return self.num_channels * self.num_ranks * self.num_banks

    @property
    def page_bytes(self) -> int:
        """Page size in bytes."""
        return 1 << self.page_bits

    @property
    def line_bytes(self) -> int:
        """Cache-line size in bytes."""
        return 1 << self.line_bits

    @property
    def memory_bytes(self) -> int:
        """Total physical memory covered by the address map."""
        return 1 << self.total_bits

    @property
    def num_frames(self) -> int:
        """Total order-0 page frames in physical memory."""
        return 1 << (self.total_bits - self.page_bits)

    # --- scalar decode ---------------------------------------------------------
    def extract(self, paddr: int, name: str) -> int:
        """Gather the scattered bits of DRAM field ``name`` from ``paddr``."""
        value = 0
        for i, p in enumerate(self.fields[name]):
            value |= ((paddr >> p) & 1) << i
        return value

    def row_of(self, paddr: int) -> int:
        """DRAM row number: the non-field bits above ``row_bits_start``.

        Field bits interleaved above the row start are squeezed out so that
        consecutive rows are consecutive integers.
        """
        row = 0
        out = 0
        field_bits = {p for ps in self.fields.values() for p in ps}
        for p in range(self.row_bits_start, self.total_bits):
            if p in field_bits:
                continue
            row |= ((paddr >> p) & 1) << out
            out += 1
        return row

    def decode(self, paddr: int) -> PhysicalLocation:
        """Full field extraction -> (node, channel, rank, bank, row).

        Per-call scalar decode: the reference that the vectorised frame
        color table (:meth:`frame_color_table`) is tested against.
        """
        self._check_paddr(paddr)
        return PhysicalLocation(
            node=self.extract(paddr, "node"),
            channel=self.extract(paddr, "channel"),
            rank=self.extract(paddr, "rank"),
            bank=self.extract(paddr, "bank"),
            row=self.row_of(paddr),
        )

    def bank_color(self, paddr: int) -> int:
        """Eq. (1): mixed-radix color over (node, channel, rank, bank)."""
        loc_node = self.extract(paddr, "node")
        loc_ch = self.extract(paddr, "channel")
        loc_rk = self.extract(paddr, "rank")
        loc_bk = self.extract(paddr, "bank")
        return self.compose_bank_color(loc_node, loc_ch, loc_rk, loc_bk)

    def compose_bank_color(self, node: int, channel: int, rank: int, bank: int) -> int:
        """Mixed-radix bank color of an explicit (node, channel, rank, bank)."""
        return (
            (node * self.num_channels + channel) * self.num_ranks + rank
        ) * self.num_banks + bank

    def split_bank_color(self, color: int) -> tuple[int, int, int, int]:
        """Inverse of :meth:`compose_bank_color` -> (node, channel, rank, bank)."""
        if not 0 <= color < self.num_bank_colors:
            raise ValueError(f"bank color {color} out of range")
        bank = color % self.num_banks
        color //= self.num_banks
        rank = color % self.num_ranks
        color //= self.num_ranks
        channel = color % self.num_channels
        node = color // self.num_channels
        return node, channel, rank, bank

    def node_of_bank_color(self, color: int) -> int:
        """The node whose controller owns frames of this bank color."""
        return self.split_bank_color(color)[0]

    def bank_colors_of_node(self, node: int) -> range:
        """All bank colors whose frames live on ``node`` (contiguous range)."""
        per = self.bank_colors_per_node
        return range(node * per, (node + 1) * per)

    def llc_color(self, paddr: int) -> int:
        """LLC color: the page-frame bits that pick the LLC set group."""
        value = 0
        for i, p in enumerate(self.llc_color_positions):
            value |= ((paddr >> p) & 1) << i
        return value

    # --- color compatibility ----------------------------------------------------
    @property
    def compatibility_table(self) -> np.ndarray:
        """Read-only ``bool[num_bank_colors, num_llc_colors]``: entry
        ``[bc, lc]`` is True when some frame carries both colors.

        When the bank field overlaps the LLC color bits (as on the Opteron,
        where bank bits 15/16 lie inside LLC color bits 12-16), the two
        colors must agree on the shared bits; pairs that disagree have no
        physical frames, leaving the 128 x 32 color matrix structurally
        sparse.  Built on first use, once per mapping instance.
        """
        table = self.__dict__.get("_compat_table")
        if table is None:
            bc = np.arange(self.num_bank_colors)
            values = {
                "bank": bc % self.num_banks,
                "rank": bc // self.num_banks % self.num_ranks,
                "channel": (bc // (self.num_banks * self.num_ranks)
                            % self.num_channels),
                "node": bc // self.bank_colors_per_node,
            }
            lc = np.arange(self.num_llc_colors)
            table = np.ones((bc.size, lc.size), dtype=bool)
            for i, p in enumerate(self.llc_color_positions):
                for name, positions in self.fields.items():
                    if p in positions:
                        bank_bit = (values[name] >> positions.index(p)) & 1
                        table &= bank_bit[:, None] == ((lc >> i) & 1)
            table.flags.writeable = False
            object.__setattr__(self, "_compat_table", table)
        return table

    def _check_colors(self, bank_color: int | None, llc_color: int | None) -> None:
        if bank_color is not None and not 0 <= bank_color < self.num_bank_colors:
            raise ValueError(f"bank color {bank_color} out of range")
        if llc_color is not None and not 0 <= llc_color < self.num_llc_colors:
            raise ValueError(f"LLC color {llc_color} out of range")

    def colors_compatible(self, bank_color: int, llc_color: int) -> bool:
        """Whether any frame carries both ``bank_color`` and ``llc_color``
        (see :attr:`compatibility_table`).

        Raises:
            ValueError: if either color is out of range.
        """
        self._check_colors(bank_color, llc_color)
        return bool(self.compatibility_table[bank_color, llc_color])

    def compatible_llc_colors(self, bank_color: int) -> tuple[int, ...]:
        """All LLC colors with physical frames of ``bank_color``, ascending."""
        cached = self._compat_llc_rows.get(bank_color)
        if cached is None:
            self._check_colors(bank_color, None)
            row = self.compatibility_table[bank_color]
            cached = self._compat_llc_rows[bank_color] = tuple(
                np.flatnonzero(row).tolist()
            )
        return cached

    def compatible_bank_colors(
        self, llc_color: int, node: int | None = None
    ) -> tuple[int, ...]:
        """All bank colors with physical frames of ``llc_color``, optionally
        restricted to one memory node."""
        self._check_colors(None, llc_color)
        if node is not None and not 0 <= node < self.num_nodes:
            raise ValueError(f"node {node} out of range")
        colors = (
            self.bank_colors_of_node(node)
            if node is not None
            else range(self.num_bank_colors)
        )
        column = self.compatibility_table[colors.start:colors.stop, llc_color]
        return tuple((np.flatnonzero(column) + colors.start).tolist())

    @property
    def shared_color_bits(self) -> int:
        """Number of LLC color bits also claimed by a DRAM field."""
        field_bits = {p for ps in self.fields.values() for p in ps}
        return sum(1 for p in self.llc_color_positions if p in field_bits)

    def frames_per_combo(self) -> int:
        """Frames carrying one *compatible* (bank color, LLC color) pair."""
        field_bits = {p for ps in self.fields.values() for p in ps}
        fixed = len(field_bits | set(self.llc_color_positions))
        return 1 << (self.total_bits - self.page_bits - fixed)

    # --- frame-level colors ------------------------------------------------------
    def frame_colors_invariant(self) -> bool:
        """True when every color bit lies at/above the page offset width.

        Only then does "the color of a frame" make sense — which TintMalloc
        requires.  Presets used for coloring must satisfy this.
        """
        positions = [p for ps in self.fields.values() for p in ps]
        positions += list(self.llc_color_positions)
        return all(p >= self.page_bits for p in positions)

    def frame_bank_color(self, pfn: int) -> int:
        """Bank color (Eq. 1) of frame ``pfn``."""
        return self.bank_color(pfn << self.page_bits)

    def frame_llc_color(self, pfn: int) -> int:
        """LLC color of frame ``pfn``."""
        return self.llc_color(pfn << self.page_bits)

    # --- vectorised decode -------------------------------------------------------
    def _gather_vec(self, paddrs: np.ndarray, positions: Iterable[int]) -> np.ndarray:
        out = np.zeros(paddrs.shape, dtype=np.int64)
        for i, p in enumerate(positions):
            out |= ((paddrs >> p) & 1) << i
        return out

    def bank_color_vec(self, paddrs: np.ndarray) -> np.ndarray:
        """Vectorised Eq. (1) over an int64 array of physical addresses."""
        node = self._gather_vec(paddrs, self.fields["node"])
        ch = self._gather_vec(paddrs, self.fields["channel"])
        rk = self._gather_vec(paddrs, self.fields["rank"])
        bk = self._gather_vec(paddrs, self.fields["bank"])
        return (
            (node * self.num_channels + ch) * self.num_ranks + rk
        ) * self.num_banks + bk

    def llc_color_vec(self, paddrs: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`llc_color` over an int64 address array."""
        return self._gather_vec(paddrs, self.llc_color_positions)

    def frame_color_table(self) -> tuple[np.ndarray, np.ndarray]:
        """(bank color, LLC color) of every frame in memory.

        Two read-only ``int16`` arrays of length :attr:`num_frames`,
        built on first use and memoized per mapping instance (like
        :attr:`compatibility_table`).  The kernel's frame pool shares
        them as its per-frame colors, and every DRAM route reads its
        bank color from the first one: a frame's bank color fixes its
        node, channel bus and bank.
        """
        tables = self.__dict__.get("_frame_colors")
        if tables is None:
            paddrs = np.arange(self.num_frames, dtype=np.int64) << self.page_bits
            tables = (
                self.bank_color_vec(paddrs).astype(np.int16),
                self.llc_color_vec(paddrs).astype(np.int16),
            )
            for table in tables:
                table.flags.writeable = False
            object.__setattr__(self, "_frame_colors", tables)
        return tables

    def frame_bank_colors(self, pfns: np.ndarray) -> np.ndarray:
        """Bank color of each frame in ``pfns``, gathered from
        :meth:`frame_color_table` (an ``int16`` array shaped like
        ``pfns``).

        Raises:
            ValueError: if any frame number lies outside physical memory
                (a plain gather would wrap negative ones silently).
        """
        self._check_pfns(pfns)
        return self.frame_color_table()[0][pfns]

    # --- compose -------------------------------------------------------------
    def compose(
        self, node: int, channel: int, rank: int, bank: int, rest: int
    ) -> int:
        """Build a physical address from DRAM coordinates plus ``rest``.

        ``rest`` supplies, low bits first, the values of every address bit
        *not* covered by a DRAM field (offset, row, and column bits).
        Inverse of :meth:`decode` modulo row/column packing.
        """
        for name, value in (
            ("node", node), ("channel", channel), ("rank", rank), ("bank", bank)
        ):
            if not 0 <= value < (1 << self.field_width(name)):
                raise ValueError(f"{name}={value} out of range")
        field_bits = {p for ps in self.fields.values() for p in ps}
        paddr = 0
        for value, name in ((node, "node"), (channel, "channel"), (rank, "rank"), (bank, "bank")):
            for i, p in enumerate(self.fields[name]):
                paddr |= ((value >> i) & 1) << p
        in_bit = 0
        for p in range(self.total_bits):
            if p in field_bits:
                continue
            paddr |= ((rest >> in_bit) & 1) << p
            in_bit += 1
        if rest >> in_bit:
            raise ValueError("rest value too large for free bits")
        return paddr

    def _check_pfns(self, pfns: np.ndarray) -> None:
        if pfns.size and (
            int(pfns.min()) < 0 or int(pfns.max()) >= self.num_frames
        ):
            raise ValueError("frame number outside physical memory")

    def _check_paddr(self, paddr: int) -> None:
        if not 0 <= paddr < self.memory_bytes:
            raise ValueError(
                f"physical address {paddr:#x} outside memory "
                f"(size {self.memory_bytes:#x})"
            )


def contiguous(lo: int, width: int) -> tuple[int, ...]:
    """Bit positions of a contiguous field: ``lo`` .. ``lo+width-1``."""
    return tuple(range(lo, lo + width))


# --------------------------------------------------------------------- schemes
@dataclass(frozen=True)
class MappingScheme:
    """A named DRAM interleaving scheme: a recipe for :class:`AddressMapping`.

    Real controllers differ mainly in *where* the channel/rank/bank bits
    sit relative to the column bits (gem5 names layouts MSB→LSB, e.g.
    ``RoCoRaBaCh`` = row | column | rank | bank | channel).  A scheme here
    is that layout written LSB→MSB as ``layout`` tokens, stacked upward
    from the page offset:

    * ``"channel"`` / ``"rank"`` / ``"bank"`` — place the field's (remaining)
      bits contiguously at the current position.  ``"bank:2"`` places only
      the next two bank bits, allowing split fields (the Opteron's bank
      bits 15, 16 and 18).
    * ``"col:N"`` — skip N column bits (they stay row/column address).

    Page coloring needs frame-invariant colors, so every field bit must
    sit at or above the page offset: layouts whose fields would fall
    below ``page_bits`` on real parts are *lifted* above the page offset
    with their LSB→MSB interleave order preserved — the same lift the
    Opteron preset applies to its channel/rank bits (see
    :mod:`repro.machine.presets`).  The node field always occupies the
    top address bits (DRAM base/limit style, node interleaving disabled),
    which the kernel's per-node frame ranges rely on
    (:meth:`node_field_on_top`).

    :meth:`build` returns an ordinary :class:`AddressMapping`, so the
    scalar :meth:`AddressMapping.decode` and the per-frame
    :meth:`AddressMapping.frame_color_table` work unchanged for every
    scheme.
    """

    name: str
    layout: tuple[str, ...]
    description: str = ""

    def build(
        self,
        *,
        total_bits: int,
        node_bits: int,
        channel_bits: int,
        rank_bits: int,
        bank_bits: int,
        llc_color_bits: int,
        line_bits: int,
        page_bits: int = 12,
    ) -> AddressMapping:
        """Construct the mapping for one platform geometry.

        Raises:
            ValueError: if the layout cannot host the requested widths
                (token for an absent field, unconsumed field bits, or the
                stack colliding with the top-of-memory node field).
        """
        widths = {
            "channel": channel_bits, "rank": rank_bits, "bank": bank_bits
        }
        remaining = dict(widths)
        positions: dict[str, list[int]] = {
            "channel": [], "rank": [], "bank": []
        }
        bit = page_bits
        for token in self.layout:
            name, _, count = token.partition(":")
            if name == "col":
                bit += int(count)
                continue
            if name not in remaining:
                raise ValueError(f"scheme {self.name}: unknown token {token!r}")
            take = int(count) if count else remaining[name]
            if take > remaining[name]:
                raise ValueError(
                    f"scheme {self.name}: {name} has only "
                    f"{remaining[name]} bits left, token {token!r} takes {take}"
                )
            positions[name].extend(range(bit, bit + take))
            remaining[name] -= take
            bit += take
        leftover = {n: w for n, w in remaining.items() if w}
        if leftover:
            raise ValueError(
                f"scheme {self.name}: field bits not placed by layout: {leftover}"
            )
        node_lo = total_bits - node_bits
        if bit > node_lo:
            raise ValueError(
                f"scheme {self.name}: fields reach bit {bit - 1} but the "
                f"node field starts at {node_lo}; increase total_bits"
            )
        return AddressMapping(
            total_bits=total_bits,
            line_bits=line_bits,
            page_bits=page_bits,
            fields={
                "node": contiguous(node_lo, node_bits),
                "channel": tuple(positions["channel"]),
                "rank": tuple(positions["rank"]),
                "bank": tuple(positions["bank"]),
            },
            llc_color_positions=contiguous(page_bits, llc_color_bits),
            # Row-buffer granularity: one frame per row, as in the presets.
            row_bits_start=page_bits,
        )


#: Named interleaving schemes (gem5 layout names, MSB→LSB; built LSB→MSB).
SCHEMES: dict[str, MappingScheme] = {
    # row | column | rank | bank | channel: channel interleaves finest
    # (page granularity after lifting), banks right above it — bank and
    # channel bits overlap the LLC color slice, coupling the two axes.
    "RoCoRaBaCh": MappingScheme(
        "RoCoRaBaCh", ("channel", "bank", "rank"),
        "fine channel interleave; bank/channel bits inside the LLC slice",
    ),
    # row | rank | bank | column | channel: a column gap between channel
    # and bank pushes most bank bits above the LLC slice (coarse 2^15-ish
    # bank granularity).
    "RoRaBaCoCh": MappingScheme(
        "RoRaBaCoCh", ("channel", "col:3", "bank", "rank"),
        "fine channel interleave, coarse bank interleave above a column gap",
    ),
    # row | rank | bank | channel | column: column bits sit lowest, so
    # even the channel interleaves coarsely (32 KiB granularity here).
    "RoRaBaChCo": MappingScheme(
        "RoRaBaChCo", ("col:3", "channel", "bank", "rank"),
        "coarse channel and bank interleave (column bits lowest)",
    ),
    # The paper's Fig. 5 Opteron layout as a scheme: 3 column bits, bank
    # split around a column bit (15, 16, 18), then channel and rank.
    # Requires bank_bits == 3 (the split is the part's literal layout).
    "OpteronFig5": MappingScheme(
        "OpteronFig5", ("col:3", "bank:2", "col:1", "bank:1", "channel", "rank"),
        "the Opteron 6128's literal Fig. 5 bit placement",
    ),
}


def build_mapping(scheme: str | MappingScheme, **geometry) -> AddressMapping:
    """Build an :class:`AddressMapping` from a scheme name or instance.

    ``geometry`` forwards to :meth:`MappingScheme.build` (total_bits,
    node_bits, channel_bits, rank_bits, bank_bits, llc_color_bits,
    line_bits, page_bits).
    """
    if isinstance(scheme, str):
        try:
            scheme = SCHEMES[scheme]
        except KeyError:
            raise ValueError(
                f"unknown mapping scheme {scheme!r}; "
                f"known: {sorted(SCHEMES)}"
            ) from None
    return scheme.build(**geometry)
