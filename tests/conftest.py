import pytest

import randkrylov.irn as irn

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def iterates(monkeypatch):
    """The iterates of every solve the test runs: one list per solve, in solve
    order, of the copies of x its trace recorder keeps (a solve returns only
    the last, as ``x``)."""
    solves, by_recorder = [], {}
    real_row = irn._TraceRecorder.row

    def row(self, *args, **kwargs):
        real_row(self, *args, **kwargs)
        if self not in by_recorder:
            by_recorder[self] = []
            solves.append(by_recorder[self])
        by_recorder[self].append(self.x)

    monkeypatch.setattr(irn._TraceRecorder, "row", row)
    return solves
