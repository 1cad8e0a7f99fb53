"""scripts/solver_peaks.py on a tiny config."""

import runpy
from pathlib import Path

import pytest

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
