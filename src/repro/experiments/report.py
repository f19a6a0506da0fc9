"""Result reporting: CSV export and paper-vs-measured comparison rows.

``EXPERIMENTS.md`` is generated from these helpers so the recorded
numbers always match what the harness actually measured.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Sequence

from repro.experiments.runner import RunRecord

_CSV_FIELDS = (
    "bench", "policy", "config", "rep", "runtime", "parallel_runtime",
    "serial_runtime", "total_idle", "remote_fraction", "row_hit_rate",
    "row_conflicts", "llc_miss_rate", "dram_accesses", "faults",
)


def records_to_csv(records: Sequence[RunRecord]) -> str:
    """Serialise run records to CSV (one row per run)."""
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=_CSV_FIELDS)
    writer.writeheader()
    for r in records:
        writer.writerow({f: getattr(r, f) for f in _CSV_FIELDS})
    return out.getvalue()


def write_csv(records: Sequence[RunRecord], path: str) -> None:
    with open(path, "w") as fh:
        fh.write(records_to_csv(records))


@dataclass(frozen=True)
class Claim:
    """One paper claim checked against the reproduction.

    Attributes:
        claim_id: short identifier ("fig10-memllc", "lbm-runtime", ...).
        paper: the paper's reported value (as a fraction/ratio).
        measured: our measured value.
        holds: whether the reproduction preserves the claim's *direction*
            and rough magnitude (the acceptance criterion; see DESIGN.md).
        note: free-text context.
    """

    claim_id: str
    paper: float
    measured: float
    holds: bool
    note: str = ""

    def row(self) -> str:
        status = "yes" if self.holds else "NO"
        return (
            f"| {self.claim_id} | {self.paper:.3f} | {self.measured:.3f} "
            f"| {status} | {self.note} |"
        )


def claims_table(claims: Sequence[Claim]) -> str:
    """Markdown table of paper-vs-measured claims."""
    lines = [
        "| claim | paper | measured | shape holds | note |",
        "|---|---|---|---|---|",
    ]
    lines += [c.row() for c in claims]
    return "\n".join(lines)
