"""Every name the traced benchmark patches still exists in the package.

``bench/tracing.py`` wraps functions by (module, attribute); a refactor that
drops or renames one breaks only the traced benchmark run, so this reads the
SPANS and HOT lists from that file (without importing or editing it) and
resolves each name here.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _traced_names():
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    found = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id in ("SPANS", "HOT"):
                found[target.id] = ast.literal_eval(node.value)
    assert set(found) == {"SPANS", "HOT"}
    return [(mod, attr) for rows in found.values() for _metric, mod, attr in rows]


def test_traced_names_resolve():
    missing = []
    for mod, attr in _traced_names():
        module = importlib.import_module(f"cuspcheck.{mod}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name, None)
            if cls is None or meth not in cls.__dict__:
                missing.append(f"{mod}.{attr}")
        elif not callable(getattr(module, attr, None)):
            missing.append(f"{mod}.{attr}")
    assert not missing, missing
