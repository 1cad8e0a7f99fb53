#!/usr/bin/env python3
"""Wall time of a fresh import and of each experiment script, in one or two
source trees.

    python scripts/startup_time.py [--runs N] SRC_A [SRC_B]

SRC_A and SRC_B are checkouts of this repository (each with ``src/`` and
``scripts/``). The commands are a fresh ``python -c "import
randkrylov.cli"``, then each ``scripts/experiment*.py`` that SRC_A has,
which every tree runs from its own ``scripts/`` and which writes its
outputs to a temporary directory. Each command runs N times
(default 5) in each tree, with that tree's ``src`` on ``PYTHONPATH``, its
root as the working directory and one BLAS thread. The trees alternate
within a round, and the one that goes first alternates between rounds, so
that a slow spell of the host falls on both. One line per command and tree
gives the min and the median of the wall seconds. Exit status 1 when a
command fails.
"""

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

IMPORT = ("import randkrylov.cli", ["-c", "import randkrylov.cli"])


def commands(tree):
    """(label, python arguments) of every command, the import first."""
    scripts = sorted((Path(tree) / "scripts").glob("experiment*.py"))
    return [IMPORT] + [(path.name, [str(Path("scripts") / path.name)])
                       for path in scripts]


def time_once(tree, args):
    """Wall seconds of one fresh ``python args`` in the tree."""
    env = dict(os.environ, PYTHONPATH=str(Path(tree).resolve() / "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    with tempfile.TemporaryDirectory() as out:
        extra = [] if args[0] == "-c" else ["--out", out]
        start = time.perf_counter()
        subprocess.run([sys.executable, *args, *extra], cwd=tree, env=env,
                       check=True, stdout=subprocess.DEVNULL)
        return time.perf_counter() - start


def time_commands(trees, cmds, runs):
    """{label: one list of wall seconds per tree}, the trees alternating.
    A tree may be given twice, to see the spread of a tree against itself."""
    times = {label: [[] for _ in trees] for label, _ in cmds}
    order = list(range(len(trees)))
    for label, args in cmds:
        for i in range(runs):
            for side in (order if i % 2 == 0 else order[::-1]):
                times[label][side].append(time_once(trees[side], args))
    return times


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("trees", nargs="+", metavar="SRC")
    opts = parser.parse_args(argv)
    if len(opts.trees) > 2 or opts.runs < 1:
        parser.error("need one or two trees and --runs >= 1")
    try:
        times = time_commands(opts.trees, commands(opts.trees[0]), opts.runs)
    except subprocess.CalledProcessError as exc:
        print(f"command failed: {exc}", file=sys.stderr)
        return 1
    for label, per_tree in times.items():
        for name, tree, secs in zip("AB", opts.trees, per_tree):
            print(f"{label:22s} {name} {tree}: min {min(secs):.3f} s, "
                  f"median {statistics.median(secs):.3f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
