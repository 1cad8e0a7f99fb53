"""scripts/startup_time.py, on the import line only."""

import runpy
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
script = runpy.run_path(str(ROOT / "scripts" / "startup_time.py"))


def test_import_line_runs_once_per_tree():
    cmds = script["commands"](ROOT)
    assert cmds[0] == script["IMPORT"]
    assert [label for label, _ in cmds[1:]] == [
        "experiment1.py", "experiment2.py", "experiment3.py"]
    # the same tree twice, as for an A/A comparison
    times = script["time_commands"]([ROOT, ROOT], cmds[:1], runs=1)
    assert list(times) == ["import randkrylov.cli"]
    [a, b] = times["import randkrylov.cli"]
    assert len(a) == len(b) == 1 and 0.0 < a[0] < 60.0 and 0.0 < b[0] < 60.0
