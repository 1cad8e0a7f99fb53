#!/usr/bin/env python3
"""Traced memory peak of each solver of a ``randkrylov run`` config.

    python scripts/solver_peaks.py CONFIG [--set KEY=VALUE ...]

Each ``--set`` overrides (or adds) one key of the parsed config, so that
another size can be measured without editing a copy of the config:
``--set problem.nx=256``. Builds the config's problem, then runs its
solvers in configuration order in this process, as ``randkrylov run`` does
with one thread, and prints one line per solver: the peak of the memory
that ``tracemalloc`` traced while that solver ran, above what was held
when it started (the problem, and whatever earlier solvers left in the
per-problem cache). A solver that is
the first to need a per-problem entry (the QR of a dense [A, b], the
leverage scores, the flex sketches) carries its construction in its peak.
Only allocations through Python's allocators are traced; LAPACK's and
BLAS's own buffers are not. Nothing is written to disk.

Exit status: 0, 2 on a config error (a ``--set`` that is not KEY=VALUE
with a ``problem.`` or ``solver.`` key, or a key no solver or problem
reads, among them), 3 when a solver raises (as for ``randkrylov run``).
"""

import argparse
import sys
import tracemalloc

from randkrylov.cli import (
    ConfigError,
    SolverError,
    _solver_call,
    _solver_names,
    build_problem,
    parse_config,
    run_solver,
)


def solver_peaks(cfg):
    """[(solver name, traced peak in bytes)] in configuration order."""
    inst = build_problem(cfg)
    names = _solver_names(cfg)
    if not names:
        raise ConfigError("no solvers configured")
    for name in names:  # every solver's keys, before any solver runs
        _solver_call(name, cfg, inst)
    peaks = []
    for name in names:
        tracemalloc.start()
        try:
            run_solver(name, cfg, inst)
            peaks.append((name, tracemalloc.get_traced_memory()[1]))
        finally:
            tracemalloc.stop()
    return peaks


def override(cfg, settings):
    """cfg with each KEY=VALUE of ``settings`` set; a malformed setting, or
    a key outside the problem and solver sections, raises ConfigError."""
    for setting in settings:
        key, sep, value = (part.strip() for part in setting.partition("="))
        if not (sep and value and key.startswith(("problem.", "solver."))):
            raise ConfigError(f"--set {setting!r}: expected "
                              "problem.KEY=VALUE or solver.NAME.KEY=VALUE")
        cfg[key] = value
    return cfg


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("config")
    parser.add_argument("--set", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="override a config key (repeatable)")
    args = parser.parse_args(argv)
    try:
        peaks = solver_peaks(override(parse_config(args.config), args.set))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    for name, peak in peaks:
        print(f"{name:<28} {peak / 2**20:10.2f} MiB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
