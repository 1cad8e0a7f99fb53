"""scripts/solver_peaks.py on a tiny config."""

import runpy
from pathlib import Path

import numpy as np
import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "solver_peaks.py"
main = runpy.run_path(str(SCRIPT))["main"]
SCRIPT_GLOBALS = main.__globals__  # what the script's functions read

CONFIG = """
problem.generator = subset_selection
problem.m = 60
problem.n = 12
problem.bern_p = 0.3
problem.seed = 3
problem.nl = 0.05
solver.s2p.family = irn_s2p
solver.s2p.seed = 1
solver.s2p.outer_max = 3
solver.fista.family = fista
solver.fista.seed = 1
solver.fista.k_max = 5
solver.irn.family = irn
solver.irn.seed = 1
solver.irn.outer_max = 3
"""


def test_one_positive_peak_per_solver_in_config_order(tmp_path, capsys):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(CONFIG)
    assert main([str(cfg)]) == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [line[0] for line in lines] == ["s2p", "fista", "irn"]
    for line in lines:  # name, traced peak, then RSS growth
        assert line[2:4] == ["MiB", "traced,"] and float(line[1]) > 0
        assert line[5:] == ["MiB", "RSS"]
        float(line[4])  # may read a little below 0: see _rss_growth
    assert list(tmp_path.iterdir()) == [cfg]  # nothing written


def test_a_bad_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(CONFIG + "solver.irn.colour = blue\n")
    assert main([str(cfg)]) == 2
    assert "colour" in capsys.readouterr().err


def _peaks(capsys):
    return {line.split()[0]: float(line.split()[1])
            for line in capsys.readouterr().out.splitlines()}


def test_set_overrides_a_key_after_parsing(tmp_path, capsys):
    # a hundred times the rows: s2p, the first to need the QR of the dense
    # [A, b] and the leverage scores, carries both at their new size
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(CONFIG)
    assert main([str(cfg)]) == 0
    small = _peaks(capsys)
    assert main([str(cfg), "--set", "problem.m=6000",
                 "--set", " solver.irn.outer_max = 2 "]) == 0
    large = _peaks(capsys)
    assert list(large) == ["s2p", "fista", "irn"]
    assert large["s2p"] > 5 * small["s2p"]
    assert cfg.read_text() == CONFIG


@pytest.mark.parametrize("setting", ["problem.m", "problem.m=", "=600",
                                     "m=600", "problem.colour=blue",
                                     "solver.irn.colour=blue",
                                     "solver.irn.outer_max=0"])
def test_a_malformed_or_unknown_set_exits_2(tmp_path, capsys, setting):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(CONFIG)
    assert main([str(cfg), "--set", setting]) == 2
    assert capsys.readouterr().err.startswith("config error:")


def test_rss_growth_is_read_in_a_forked_child(monkeypatch):
    # a solver that touches 40 MiB grows the child's high-water mark by
    # about as much, and leaves this process's memory as it was; a solver
    # that raises reads None
    touched = []

    def solver(name, cfg, inst):
        touched.append(np.ones(5 * 2**20))  # 40 MiB, every page written

    monkeypatch.setitem(SCRIPT_GLOBALS, "run_solver", solver)
    growth = SCRIPT_GLOBALS["_rss_growth"]("big", {}, None)
    assert 38 * 2**20 <= growth <= 48 * 2**20
    assert touched == []  # the solver ran in the child only

    def failing(name, cfg, inst):
        raise RuntimeError("no solve")

    monkeypatch.setitem(SCRIPT_GLOBALS, "run_solver", failing)
    assert SCRIPT_GLOBALS["_rss_growth"]("bad", {}, None) is None
