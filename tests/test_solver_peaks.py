"""scripts/solver_peaks.py on a tiny config."""

import runpy
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "solver_peaks.py"
main = runpy.run_path(str(SCRIPT))["main"]

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
    assert all(line[2] == "MiB" and float(line[1]) > 0 for line in lines)
    assert list(tmp_path.iterdir()) == [cfg]  # nothing written


def test_a_bad_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(CONFIG + "solver.irn.colour = blue\n")
    assert main([str(cfg)]) == 2
    assert "colour" in capsys.readouterr().err
