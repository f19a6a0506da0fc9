"""Fail if ``src/repro`` defines public code that nothing outside tests uses.

A public function, method or class that no program file names is kept
alive only by its own tests: it costs reading and upkeep and shows no
behaviour of the system.  This scan (stdlib ``ast`` only, like
``tools/check_docstrings.py``) collects every identifier that code in
``src/``, ``examples/``, ``tools/``, ``benchmarks/`` and ``perfbench/``
uses: names, attribute accesses, and identifier-shaped string constants
such as ``getattr`` keys.  What does not count as a use: docstrings, the
definition itself, imports, ``__all__`` lists (the re-exports of
``__init__.py``), and a use of a name inside the body of a definition
with that same name (recursion, or a forwarding wrapper such as
``def normal(self): return self.gen.normal()``).

Checked: module-level functions and classes, and methods of public
classes, whose dotted path contains no ``_``-prefixed component.
Dunders are exempt (the language calls them).  Matching is by name,
with two exceptions.  A use written ``ClassName.method``, where
``ClassName`` is a class defined in ``src/repro``, counts only for that
class's ``method``; any other attribute use, such as ``x.method``,
counts for every method of that name.  And a method is used only
through an attribute access, a ``ClassName.method`` use or a string
constant: a bare name (a function or variable that shares the method's
name) does not count for it.
Definitions kept on purpose with no program caller are listed by dotted
name in ``ALLOWED``, each with its reason.

Usage::

    python tools/check_orphans.py

Exit status is 1 when it finds an orphan or a stale ``ALLOWED`` entry
and 0 otherwise; each orphan is printed as ``path:line: kind dotted.name``.
"""

from __future__ import annotations

import ast
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
PACKAGE = SRC / "repro"

#: Directories whose code counts as a caller (tests do not).
CALLER_DIRS = ("src", "examples", "tools", "benchmarks", "perfbench")

#: Public definitions kept with no program caller, by dotted name, each
#: with its reason.  An entry that is no longer an orphan (a caller
#: appeared, or the definition is gone) fails the check too, so the list
#: only ever names what it has to.
ALLOWED: dict[str, str] = {
    # The scalar per-frame codec: the oracle frame_color_table is
    # tested against.
    "repro.machine.address.AddressMapping.frame_bank_color":
        "scalar oracle for frame_color_table()[0]",
    "repro.machine.address.AddressMapping.frame_llc_color":
        "scalar oracle for frame_color_table()[1]",
    # The fast/reference differential oracle and its report.
    "repro.sanitize.diff.DiffReport.raise_on_divergence":
        "typed failure of a differential run",
    "repro.alloc.planner.plan_is_disjoint":
        "invariant the color-planner tests assert on every plan",
    # State accessors and read-only queries that tests observe the
    # system through; deleting them would push tests into private fields.
    "repro.alloc.heap.HeapAllocator.live_allocations": "heap state accessor",
    "repro.alloc.heap.HeapAllocator.allocation_at": "heap state accessor",
    "repro.cache.cache.Cache.occupancy": "cache state accessor",
    "repro.cache.cache.Cache.occupancy_of_set": "cache state accessor",
    "repro.cache.hierarchy.CacheHierarchy.core_stats": "cache state accessor",
    "repro.faultline.plan.FaultInjector.fire_count": "fault-plan state accessor",
    "repro.kernel.buddy.BuddyAllocator.free_blocks": "buddy state accessor",
    "repro.kernel.buddy.BuddyAllocator.largest_free_order":
        "buddy state accessor",
    "repro.kernel.colorlist.ColorMatrix.has_matching":
        "color-matrix state query",
    "repro.kernel.kernel.Kernel.memory_stats": "kernel state accessor",
    "repro.kernel.pagealloc.PageAllocator.free_frames_total":
        "page-allocator state accessor",
    "repro.kernel.vm.AddressSpace.populated_pages": "VM state accessor",
    "repro.kernel.vm.AddressSpace.resident_pages": "VM state accessor",
    "repro.obs.observer.Observer.open_spans": "observer state accessor",
    "repro.sim.trace.Trace.total_think_ns": "trace accessor",
    "repro.machine.address.AddressMapping.compatible_bank_colors":
        "color-compatibility query, the column twin of compatible_llc_colors",
    "repro.machine.address.AddressMapping.shared_color_bits":
        "color-compatibility query",
    "repro.machine.topology.MachineTopology.cores_of_node": "topology query",
    "repro.machine.topology.MachineTopology.nodes_of_socket": "topology query",
    "repro.machine.topology.MachineTopology.is_local": "topology query",
    "repro.experiments.configs.ExperimentConfig.nodes_used":
        "thread-config query",
    "repro.workloads.registry.suite_of": "workload-registry query",
    "repro.cache.cache.Cache.invalidate":
        "cache operation the LRU model-based property test drives",
    "repro.faultline.hooks.disarm": "the only way to undo a bare arm()",
    # Documented API.
    "repro.obs.metrics.Histogram.quantile": "documented in docs/OBSERVABILITY.md",
    "repro.search.report.replay_front": "documented in docs/SEARCH.md",
}


def _defined(
    node: ast.AST, prefix: str, owner: str | None, path: Path,
    out: list[tuple[Path, int, str, str, str, str | None]],
) -> None:
    """Collect public (path, line, kind, dotted, name, owner) definitions;
    ``owner`` is the name of the class a definition sits in, or None."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            if child.name.startswith("_"):
                continue
            out.append((path, child.lineno, "class", f"{prefix}.{child.name}",
                        child.name, owner))
            _defined(child, f"{prefix}.{child.name}", child.name, path, out)
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if child.name.startswith("_"):
                continue
            kind = "method" if owner is not None else "function"
            out.append((path, child.lineno, kind, f"{prefix}.{child.name}",
                        child.name, owner))


def _docstring_nodes(tree: ast.AST) -> set[int]:
    """ids of the string constants that are docstrings."""
    ids: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                ids.add(id(body[0].value))
    return ids


def _class_names(tree: ast.AST) -> set[str]:
    """Names of every class *tree* defines, at any depth."""
    return {n.name for n in ast.walk(tree) if isinstance(n, ast.ClassDef)}


def _used(
    tree: ast.AST, classes: set[str]
) -> tuple[set[str], set[str], set[tuple[str, str]]]:
    """Identifiers *tree* uses, per the rules in the module docstring:
    bare names; attribute names and string constants; and
    ``(class, attribute)`` pairs for the uses written
    ``ClassName.attribute`` with ``ClassName`` in *classes*."""
    skip = _docstring_nodes(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            skip.update(id(n) for n in ast.walk(node.value))
    bare: set[str] = set()
    names: set[str] = set()
    qualified: set[tuple[str, str]] = set()

    def walk(node: ast.AST, inside: frozenset[str]) -> None:
        if isinstance(node, ast.Name):
            if node.id not in inside:
                bare.add(node.id)
            name = None
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name)
              and node.value.id in classes):
            if node.attr not in inside:
                qualified.add((node.value.id, node.attr))
            name = None
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in skip and node.value.isidentifier()):
            name = node.value
        else:
            name = None
        if name is not None and name not in inside:
            names.add(name)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = inside | {node.name}
        for child in ast.iter_child_nodes(node):
            walk(child, inside)

    walk(tree, frozenset())
    return bare, names, qualified


def find_orphans() -> tuple[list[tuple[Path, int, str, str]], list[str]]:
    """Return the orphans, as (path, line, kind, dotted-name) for every
    public definition in ``src/repro`` that no caller directory names and
    ``ALLOWED`` does not list, and the ``ALLOWED`` entries that name no
    orphan."""
    trees: list[tuple[Path, ast.AST]] = []
    for top in CALLER_DIRS:
        for path in sorted((REPO_ROOT / top).rglob("*.py")):
            if path == Path(__file__).resolve():
                continue  # the allowlist names what it allows
            trees.append((path, ast.parse(path.read_text(), filename=str(path))))
    classes: set[str] = set()
    for path, tree in trees:
        if path.is_relative_to(PACKAGE):
            classes |= _class_names(tree)
    defined: list[tuple[Path, int, str, str, str, str | None]] = []
    bare: set[str] = set()
    used: set[str] = set()
    qualified: set[tuple[str, str]] = set()
    for path, tree in trees:
        names, attrs, pairs = _used(tree, classes)
        bare |= names
        used |= attrs
        qualified |= pairs
        if not path.is_relative_to(PACKAGE):
            continue
        rel = path.relative_to(SRC).with_suffix("")
        parts = rel.parts[:-1] if rel.name == "__init__" else rel.parts
        if any(p.startswith("_") and p not in ("__init__", "__main__")
               for p in parts):
            continue
        _defined(tree, ".".join(parts), None, path, defined)
    unused = [d for d in defined
              if d[4] not in used and (d[5], d[4]) not in qualified
              and (d[2] == "method" or d[4] not in bare)]
    orphans = [d[:4] for d in unused if d[3] not in ALLOWED]
    stale = sorted(set(ALLOWED) - {d[3] for d in unused})
    return orphans, stale


def main() -> int:
    orphans, stale = find_orphans()
    for path, line, kind, dotted in orphans:
        print(f"{path.relative_to(REPO_ROOT)}:{line}: {kind} {dotted}")
    for dotted in stale:
        print(f"tools/check_orphans.py: ALLOWED entry {dotted} is not an orphan")
    if orphans or stale:
        print(f"\n{len(orphans)} public name(s) used only by tests, or not "
              f"at all; {len(stale)} stale allowlist entr(ies).")
    return 1 if orphans or stale else 0


if __name__ == "__main__":
    raise SystemExit(main())
