"""The benchmark's traced run wraps named entry points of ``randkrylov``
(``SPANS`` and ``RULE_ARGS`` in perfbench/tracing.py) and stops when one is
gone; every name it lists must resolve to a callable, and every rule in
``RULE_ARGS`` must evaluate its lambda function through its first argument."""

import ast
import importlib
from collections import Counter
from pathlib import Path

import numpy as np

from randkrylov.regparam import LambdaPolicy, select_lambda, svd_pair

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


def test_rule_args_evaluate_their_first_argument(monkeypatch):
    # the traced run counts rule evaluations by wrapping the first argument
    # of each RULE_ARGS function; dp, gcv and optimal must all go through one
    calls = Counter()
    for short, path in _literal("RULE_ARGS"):
        module = importlib.import_module(f"randkrylov.{short}")
        rule = getattr(module, path)

        def wrapped(fun, *args, _rule=rule, _path=path, **kwargs):
            def counted(lam):
                calls[_path] += 1
                return fun(lam)
            return _rule(counted, *args, **kwargs)

        monkeypatch.setattr(module, path, wrapped)
    rng = np.random.Generator(np.random.Philox(7))
    M = rng.standard_normal((40, 10)) @ np.diag(np.geomspace(1.0, 1e-3, 10))
    x_true = rng.standard_normal(10)
    b = M @ x_true + 0.01 * rng.standard_normal(40)
    pair, b_norm = svd_pair(M, b), float(np.linalg.norm(b))
    for policy, rule in ((LambdaPolicy(kind="dp", nl=0.02), "dp_select"),
                         (LambdaPolicy(kind="gcv"), "_grid_argmin"),
                         (LambdaPolicy(kind="optimal", x_true=x_true),
                          "_grid_argmin")):
        calls.clear()
        lam = select_lambda(policy, pair, b_norm, (np.eye(10), x_true))
        assert lam > 0.0 and calls[rule] > 0 and sum(calls.values()) == \
            calls[rule], policy.kind
