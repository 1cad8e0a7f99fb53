"""Paths, thread pinning and the program import shared by the benchmark's
parent process (``run.py``) and its per-repetition workers (``worker.py``).

This module imports nothing heavy: ``pin_threads`` must run before numpy is
first imported, or OpenBLAS has already started its thread pool.
"""

from __future__ import annotations

import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".bench_build", "perfbench")

# Every BLAS/OpenMP thread knob numpy and scipy may read. Both wheels bundle
# their own OpenBLAS; each reads OPENBLAS_NUM_THREADS when it loads.
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class BenchError(Exception):
    """The benchmark cannot run or its outputs do not hold together."""


def pin_threads():
    if "numpy" in sys.modules:
        raise BenchError("numpy was imported before the thread counts were pinned")
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_program():
    """Import ``randkrylov.cli`` from this checkout's ``src/`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "randkrylov", "cli.py")):
        raise BenchError(f"no program source under {SRC}")
    sys.path.insert(0, SRC)
    from randkrylov import cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise BenchError(f"randkrylov imported from {cli.__file__}, not {SRC}")
    return cli


def environment_record():
    """Cores, thread settings and library versions, for every report."""
    import numpy as np
    import scipy

    def blas(show_config):
        deps = show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{deps.get('name')} {deps.get('version')}"

    return {
        "python": sys.version.split()[0],
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "numpy": np.__version__,
        "numpy_blas": blas(np.show_config),
        "scipy": scipy.__version__,
        "scipy_blas": blas(scipy.show_config),
    }
