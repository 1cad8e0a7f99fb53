"""The benchmark's traced run wraps named entry points of ``randkrylov``
(``SPANS`` and ``RULE_ARGS`` in perfbench/tracing.py) and stops when one is
gone; every name it lists must resolve to a callable."""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _literal(name):
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {TRACING}")


def test_traced_entry_points_resolve():
    entries = [(short, path) for _span, short, path in _literal("SPANS")]
    entries += list(_literal("RULE_ARGS"))
    assert len(entries) > 20
    missing = []
    for short, path in entries:
        owner = importlib.import_module(f"randkrylov.{short}")
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"randkrylov.{short}.{path}")
    assert not missing, missing
