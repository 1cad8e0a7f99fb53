"""scripts/compare_outputs.py on two small output trees."""

import runpy
from pathlib import Path

import numpy as np
import pytest

from randkrylov import SolveResult, TraceRow
from randkrylov.cli import trace_to_csv

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_outputs.py"
main = runpy.run_path(str(SCRIPT))["main"]


def _write(root, name, x, objectives, lam=0.5):
    """A solver's trace CSV and x, as ``randkrylov run`` writes them."""
    prefix = root / name
    prefix.parent.mkdir(parents=True, exist_ok=True)
    rows = [TraceRow(outer=i + 1, cum_inner=3 * (i + 1), rel_error=0.1,
                     objective_mm=f, objective_literal=2 * f, lam=lam)
            for i, f in enumerate(objectives)]
    (root / f"{name}.trace.csv").write_text(
        trace_to_csv(Path(name).name, SolveResult(np.asarray(x), rows)))
    np.asarray(x, dtype="<f8").tofile(root / f"{name}.x.f64")


@pytest.fixture
def trees(tmp_path):
    old, new = tmp_path / "old", tmp_path / "new"
    for root in (old, new):
        _write(root, "exp1/a", [1.0, 2.0], [4.0, 3.0])
        _write(root, "exp2/b", [3.0, 4.0], [8.0, 6.0])
    return old, new


def test_identical_trees_exit_0(trees, capsys):
    assert main([str(p) for p in trees]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "exp1/a: byte-identical", "exp2/b: byte-identical"]


def test_changes_are_reported_with_their_size(trees, capsys):
    old, new = trees
    # x moves by |(0, 1e-3)| / |(3, 4)| = 2e-4 and the last objective by 1/6
    _write(new, "exp2/b", [3.0, 4.001], [8.0, 7.0])
    _write(new, "exp3/c", [1.0], [1.0])
    assert main([str(old), str(new)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "exp1/a: byte-identical",
        "exp2/b: x 0.0002, objective_mm 0.17, objective_literal 0.17, "
        "lambda 0, cum_inner 6 -> 6",
        "exp3/c: only in NEW",
    ]
    assert main([str(new), str(old)]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "exp3/c: only in OLD"


def test_missing_traces_exit_2(tmp_path, capsys):
    assert main([str(tmp_path / "none"), str(tmp_path)]) == 2
    assert "no *.trace.csv" in capsys.readouterr().err
