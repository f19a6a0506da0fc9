"""Event-driven DRAM timing model.

Reproduces the first-order phenomena the paper builds on (§II-B):

* per-bank row buffers with hit / closed-miss / conflict timing,
* queueing at controllers, channels and banks (``busy_until`` occupancy),
* periodic refresh closing row buffers,
* remote-controller penalties over the HyperTransport interconnect,
* write-back traffic occupying banks and disturbing open rows.
"""

from repro.dram.interconnect import Interconnect
from repro.dram.remote import RemoteCache, RemoteTier
from repro.dram.system import AccessResult, DramStats, DramSystem, RowKind
from repro.dram.timing import DramTiming

__all__ = [
    "RowKind",
    "Interconnect",
    "RemoteCache",
    "RemoteTier",
    "AccessResult",
    "DramStats",
    "DramSystem",
    "DramTiming",
]
