"""Fail if the public API is missing docstrings.

Dependency-free (stdlib ``ast`` only) so it runs in the tier-1 suite and
as the gate in front of the CI docs job: ``pdoc`` renders whatever
docstrings exist, so an *empty* page would otherwise pass silently.

Checked: every module, class, and function/method that is part of the
public surface of the packages listed in ``PACKAGES`` — i.e. whose
dotted path contains no ``_``-prefixed component.  Dunder methods other
than ``__init__`` are exempt (their contracts are the language's);
``__init__`` itself is exempt when its class is documented, the usual
place for constructor args.  ``@overload`` stubs and
``typing.TYPE_CHECKING`` blocks are ignored.

Usage::

    python tools/check_docstrings.py            # check PACKAGES
    python tools/check_docstrings.py repro.dram # check something else

Exit status is the number of offenders (0 = clean), each printed as
``path:line: kind dotted.name``.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"

#: Packages whose public surface must be documented.  ``repro.cache``
#: and ``repro.dram`` joined when the batch-kernel API (repro.cache.batch,
#: AddressMapping.frame_color_table) became public engine surface.
PACKAGES = (
    "repro.core",
    "repro.sim",
    "repro.machine",
    "repro.service",
    "repro.cache",
    "repro.dram",
    "repro.search",
)


def _is_overload(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    for dec in node.decorator_list:
        name = dec.attr if isinstance(dec, ast.Attribute) else (
            dec.id if isinstance(dec, ast.Name) else None
        )
        if name == "overload":
            return True
    return False


def _public(name: str) -> bool:
    return not name.startswith("_")


def _walk(
    node: ast.AST, prefix: str, path: Path, offenders: list[tuple[Path, int, str, str]]
) -> None:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            if not _public(child.name):
                continue
            dotted = f"{prefix}.{child.name}"
            if ast.get_docstring(child) is None:
                offenders.append((path, child.lineno, "class", dotted))
            _walk(child, dotted, path, offenders)
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = child.name
            if name.startswith("__") and name.endswith("__"):
                continue  # dunders: contract defined by the language
            if not _public(name) or _is_overload(child):
                continue
            if ast.get_docstring(child) is None:
                kind = "method" if isinstance(node, ast.ClassDef) else "function"
                offenders.append((path, child.lineno, kind, f"{prefix}.{name}"))


def check_package(package: str) -> list[tuple[Path, int, str, str]]:
    """Return (path, line, kind, dotted-name) for every undocumented
    public module/class/function under *package*."""
    pkg_dir = SRC / Path(*package.split("."))
    offenders: list[tuple[Path, int, str, str]] = []
    for path in sorted(pkg_dir.rglob("*.py")):
        rel = path.relative_to(SRC).with_suffix("")
        parts = rel.parts[:-1] if rel.name == "__init__" else rel.parts
        if any(p.startswith("_") and p != "__init__" for p in parts):
            continue
        module = ".".join(parts)
        tree = ast.parse(path.read_text(), filename=str(path))
        if ast.get_docstring(tree) is None:
            offenders.append((path, 1, "module", module))
        _walk(tree, module, path, offenders)
    return offenders


def main(argv: list[str]) -> int:
    packages = argv or list(PACKAGES)
    offenders: list[tuple[Path, int, str, str]] = []
    for package in packages:
        offenders.extend(check_package(package))
    for path, line, kind, dotted in offenders:
        print(f"{path.relative_to(REPO_ROOT)}:{line}: {kind} {dotted}")
    if offenders:
        print(f"\n{len(offenders)} public name(s) missing docstrings.")
    return len(offenders)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
