"""The module layers of the package, read from its relative imports.

Every module is imported by ``cuspcheck/__init__.py``, so which modules a
fresh interpreter has loaded says nothing; the import statements do.  Both
module-level and nested ``from .x import`` statements count.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cuspcheck"

# the checker's trusted base: lattice arithmetic and the error types
CHECKER_BASE = {"checker", "errors", "intlinalg", "lattice", "isometry"}


def _imports():
    """Module name -> the in-package modules it imports."""
    graph = {}
    for path in PACKAGE.glob("*.py"):
        found = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module is None:  # from . import x
                    found.update(alias.name for alias in node.names)
                else:
                    found.add(node.module.split(".")[0])
        graph[path.stem] = found
    return graph


def _closure(graph, start):
    seen, todo = set(), [start]
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo.extend(graph[name])
    return seen


def test_the_import_graph_is_read_from_the_sources():
    graph = _imports()
    assert "checker" in graph["pipeline"] and "jsonio" in graph["cli"]
    assert _closure(graph, "cli") >= {"pipeline", "weyl", "checker", "jsonio"}


def test_the_checker_imports_only_lattice_arithmetic():
    assert _closure(_imports(), "checker") <= CHECKER_BASE


def test_jsonio_does_not_load_the_producer():
    assert "weyl" not in _closure(_imports(), "jsonio")
