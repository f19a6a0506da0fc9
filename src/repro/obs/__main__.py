"""Observability CLI: ``python -m repro.obs <command>``.

Commands::

    top     render one dashboard frame from a JSON metrics snapshot
            written by ``--metrics-out`` (experiments or tune)

Examples::

    python -m repro.experiments tune --bench lbm --profile mini \\
        --budget 4 --metrics-out out/metrics.json
    python -m repro.obs top out/metrics.json
"""

from __future__ import annotations

import argparse
import sys

from repro.obs.dashboard import read_snapshot, render_frame


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro.obs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("top", help="render a --metrics-out JSON snapshot")
    p.add_argument("path", metavar="PATH",
                   help="JSON snapshot written by --metrics-out")

    args = parser.parse_args(argv)
    try:
        snapshot = read_snapshot(args.path)
    except ValueError as exc:
        print(f"repro.obs top: {exc}", file=sys.stderr)
        return 1
    print(render_frame(snapshot))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
