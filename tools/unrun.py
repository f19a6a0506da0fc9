"""List the function-body lines in ``src/repro`` that no run executes.

``tools/check_orphans.py`` finds definitions that nothing names; it
cannot see bodies and branches that are named but never run.  This
audit (stdlib only, like ``check_orphans.py``) runs commands in-process
under ``sys.settrace``/``threading.settrace``, records every line of
``src/repro`` they execute, merges the runs, and prints each never-run
line range of each function as ``path:line: dotted.name (n lines)``.

A function-body line is a line of a function's body that carries
bytecode (``co_lines``), attributed to the innermost ``def`` around it;
lambdas and comprehensions count as part of their function.  Module and
class bodies run on import and are not counted.

The default runs are tier-1 (``pytest -x -q``) and the three perfbench
workloads (``perfbench/run.py --workload W --seed 0 --seconds 0 --trace
0``), each recorded in a child process of this script.  Forked workers
and CLI subprocesses that a run starts are not traced, so a line that
only they reach is listed: read its callers before deleting it.

Functions kept on purpose with never-run lines are listed by dotted
name in ``KEEP``, each with the number of its never-run lines and a
reason, the way ``ALLOWED`` works in ``check_orphans.py``.  An entry
whose function has a different number of never-run lines (fewer, more,
or the function is gone) fails the audit, so a kept function cannot hide a
new dead branch.  Hypothesis draws vary from run to run, so a line that
only some examples reach can come and go; give it a deterministic test.

Usage (from the repository root; tier-1 traced takes several times its
untraced time, and the four runs go two at a time)::

    python tools/unrun.py                      # all four default runs
    python tools/unrun.py --record OUT.json -- pytest -x -q tests/test_cache.py

``--record`` runs one command (``pytest ARGS``, ``-m MODULE ARGS`` or
``SCRIPT.py ARGS``) and saves the lines it executed as JSON; the
default runs use it in their child processes.  Exit status is 1 when a
never-run region is outside ``KEEP``, a ``KEEP`` entry's count is off,
or a run fails; 0 otherwise.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import runpy
import subprocess
import sys
import tempfile
import threading
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
PACKAGE = SRC / "repro"

#: name -> command of each default run.
RUNS: dict[str, list[str]] = {
    "tier1": ["pytest", "-x", "-q", "-p", "no:cacheprovider"],
    **{
        w: ["perfbench/run.py", "--workload", w, "--seed", "0",
            "--seconds", "0", "--trace", "0"]
        for w in ("fig11_opteron", "matrix_disagg", "tune_lbm")
    },
}

#: Functions kept with never-run lines, by dotted name: how many of its
#: lines never run, and why.  A different count fails the audit.
KEEP: dict[str, tuple[int, str]] = {
    "repro.sanitize.base.Checker.check": (
        1, "abstract: each of the four layer checkers implements it"),
    "repro.sanitize.base.Checker.check_fast": (
        1, "default for a checker without a cheap subset; all four override it"),
    "repro.search.drivers.Evaluator.evaluate_genome": (
        1, "interface: ServiceEvaluator and the tests' scripted one implement it"),
    "repro.search.drivers.Evaluator.evaluate_policy": (
        1, "interface: ServiceEvaluator and the tests' scripted one implement it"),
    "repro.service.worker.apply_worker_faults": (
        1, "worker.kill's os._exit runs only in a forked worker "
           "(tests/test_faultline_injection.py)"),
}

#: Default runs made at a time.
JOBS = min(2, os.cpu_count() or 1)


# -- recording ---------------------------------------------------------------

def _record(argv: list[str]) -> tuple[dict[str, set[int]], int]:
    """Run *argv* in this process under a line tracer.

    Returns the executed lines of each ``src/repro`` file, by path
    relative to the repository root, and the command's exit status.
    A code object stops being traced once every one of its lines ran.
    """
    root = str(PACKAGE) + os.sep
    lines: dict[str, set[int]] = defaultdict(set)
    tracers: dict[object, object] = {}

    def make(code):
        if not code.co_filename.startswith(root):
            return None
        need = len({ln for _, _, ln in code.co_lines() if ln} - {code.co_firstlineno})
        seen: set[int] = set()
        add = seen.add
        file_lines = lines[code.co_filename]

        def local(frame, event, arg):
            if event == "line":
                ln = frame.f_lineno
                add(ln)
                file_lines.add(ln)
            elif event == "return" and len(seen) >= need:
                tracers[code] = None
            return local

        return local

    def on_call(frame, event, arg):
        code = frame.f_code
        try:
            return tracers[code]
        except KeyError:
            local = tracers[code] = make(code)
            return local

    sys.path.insert(0, str(SRC))
    status = 0
    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        if argv[0] == "pytest":
            import pytest

            status = int(pytest.main(argv[1:]))
        else:
            sys.argv = argv[1:] if argv[0] == "-m" else argv[:]
            try:
                if argv[0] == "-m":
                    runpy.run_module(argv[1], run_name="__main__", alter_sys=True)
                else:
                    sys.path.insert(0, str(Path(argv[0]).resolve().parent))
                    runpy.run_path(argv[0], run_name="__main__")
            except SystemExit as exc:
                exit_code = exc.code
                status = (exit_code if isinstance(exit_code, int)
                          else 0 if exit_code is None else 1)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    rel = {str(Path(f).relative_to(REPO_ROOT)): s for f, s in lines.items()}
    return rel, status


# -- what could run ----------------------------------------------------------

def _code_objects(code):
    yield code
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            yield from _code_objects(const)


def _bodies(tree: ast.AST, prefix: str) -> list[tuple[int, int, str]]:
    """(first body line, last line, dotted name) of every function."""
    out: list[tuple[int, int, str]] = []

    def walk(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}.{child.name}")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                dotted = f"{prefix}.{child.name}"
                out.append((child.body[0].lineno, child.end_lineno, dotted))
                walk(child, dotted)
            else:
                walk(child, prefix)

    walk(tree, prefix)
    return out


def body_lines() -> dict[str, dict[int, str]]:
    """Every function-body line with bytecode, per file, mapped to the
    dotted name of the innermost function around it."""
    out: dict[str, dict[int, str]] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        source = path.read_text()
        rel = path.relative_to(SRC).with_suffix("")
        parts = rel.parts[:-1] if rel.name == "__init__" else rel.parts
        bodies = _bodies(ast.parse(source), ".".join(parts))
        code = compile(source, str(path), "exec", dont_inherit=True)
        have = {ln for c in _code_objects(code) for _, _, ln in c.co_lines() if ln}
        owner: dict[int, str] = {}
        # Outer functions come first, so inner ones overwrite them.
        for first, last, dotted in bodies:
            for ln in range(first, last + 1):
                if ln in have:
                    owner[ln] = dotted
        out[str(path.relative_to(REPO_ROOT))] = owner
    return out


# -- report ------------------------------------------------------------------

def never_run(
    ran: dict[str, set[int]], owners: dict[str, dict[int, str]],
) -> list[tuple[str, int, str, int]]:
    """(path, first line, dotted name, n lines) of each never-run range:
    consecutive body lines of one function (``owners``, from
    :func:`body_lines`) that no run executed."""
    regions: list[tuple[str, int, str, int]] = []
    for path, owner in owners.items():
        done = ran.get(path, set())
        current: list | None = None
        for ln in sorted(owner):
            dotted = owner[ln]
            if ln in done:
                current = None
            elif current is not None and current[2] == dotted:
                current[3] += 1
            else:
                current = [path, ln, dotted, 1]
                regions.append(current)
    return [tuple(r) for r in regions]


def report(ran: dict[str, set[int]]) -> int:
    """Print the never-run regions outside ``KEEP`` and a per-package
    count; return the exit status."""
    owners = body_lines()
    regions = never_run(ran, owners)
    total = sum(len(o) for o in owners.values())
    per_pkg: dict[str, int] = defaultdict(int)
    kept_pkg: dict[str, int] = defaultdict(int)
    kept: dict[str, int] = defaultdict(int)
    shown = 0
    for path, line, dotted, n in regions:
        pkg = dotted.split(".")[1]
        per_pkg[pkg] += n
        if dotted in KEEP:
            kept_pkg[pkg] += n
            kept[dotted] += n
            continue
        shown += 1
        print(f"{path}:{line}: {dotted} ({n} line{'s' if n > 1 else ''})")
    off = sorted(d for d, (n, _) in KEEP.items() if kept[d] != n)
    for dotted in off:
        print(f"tools/unrun.py: KEEP entry {dotted} expects {KEEP[dotted][0]} "
              f"never-run line(s), has {kept[dotted]}")
    unrun = sum(per_pkg.values())
    print(f"\n{unrun} of {total} function-body lines never ran "
          f"({sum(kept_pkg.values())} kept); by package:")
    for pkg in sorted(per_pkg, key=lambda p: (-per_pkg[p], p)):
        print(f"  {pkg:12s} {per_pkg[pkg]:5d}  (kept {kept_pkg[pkg]})")
    print(f"{shown} region(s) outside KEEP; {len(off)} KEEP count(s) off.")
    return 1 if shown or off else 0


def _load(paths: list[str]) -> dict[str, set[int]]:
    ran: dict[str, set[int]] = defaultdict(set)
    for p in paths:
        for path, lines in json.loads(Path(p).read_text())["lines"].items():
            ran[path] |= set(lines)
    return ran


def _child(name: str, command: list[str], out: Path) -> int:
    """Record one run in a child process, its output in ``out`` with a
    ``.log`` suffix; return its exit status."""
    _say(f"unrun: {name}: {' '.join(command)}")
    log = out.with_suffix(".log")
    with open(log, "w") as fh:
        proc = subprocess.run(
            [sys.executable, __file__, "--record", str(out), "--", *command],
            cwd=REPO_ROOT, stdout=fh, stderr=subprocess.STDOUT,
        )
    tail = "".join(log.read_text().splitlines(True)[-20:]) if proc.returncode else ""
    _say(f"unrun: {name}: exit {proc.returncode}\n{tail}".rstrip())
    return proc.returncode


def _say(text: str) -> None:
    """One whole line to stdout, also when runs finish concurrently."""
    sys.stdout.write(text + "\n")
    sys.stdout.flush()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", metavar="OUT",
                        help="run the command after -- and save its lines")
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    if args.record:
        os.chdir(REPO_ROOT)
        ran, status = _record(command)
        Path(args.record).write_text(json.dumps({
            "command": command, "status": status,
            "lines": {p: sorted(s) for p, s in ran.items()},
        }))
        return status

    names = list(RUNS)
    with tempfile.TemporaryDirectory() as tmp:
        outs = {n: Path(tmp) / f"{n}.json" for n in names}
        with ThreadPoolExecutor(JOBS) as pool:
            statuses = dict(zip(names, pool.map(
                lambda n: _child(n, RUNS[n], outs[n]), names)))
        failed = [n for n, s in statuses.items() if s != 0]
        status = report(_load([str(outs[n]) for n in names if outs[n].exists()]))
    for n in failed:
        print(f"unrun: run {n} failed (exit {statuses[n]})")
    return 1 if failed else status


if __name__ == "__main__":
    raise SystemExit(main())
