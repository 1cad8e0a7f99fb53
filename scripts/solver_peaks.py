#!/usr/bin/env python3
"""Traced memory peak and RSS growth of each solver of a ``randkrylov run``
config.

    python scripts/solver_peaks.py CONFIG [--set KEY=VALUE ...]

Each ``--set`` overrides (or adds) one key of the parsed config, so that
another size can be measured without editing a copy of the config:
``--set problem.nx=256``. Builds the config's problem, then runs its
solvers in configuration order in this process, as ``randkrylov run`` does
with one thread, and prints one line per solver with two numbers, each
above what was held when the solver started (the problem, and whatever
earlier solvers left in the per-problem cache):

- the peak of the memory that ``tracemalloc`` traced while that solver
  ran. Only allocations through Python's allocators are traced; LAPACK's
  and BLAS's own buffers are not;
- the growth of the resident set's high-water mark (``ru_maxrss``) while
  the solver ran once more, untraced, in a child forked before its traced
  run, as the benchmark's ``perfbench/tracing.py`` reads ``peak_mem_mb``:
  garbage is collected and freed heap handed back to the system before
  the fork, and the child maps its library pages and holds glibc's mmap
  threshold at 128 KiB before it starts. This one counts BLAS buffers
  and allocator slack too.

A solver that is the first to need a per-problem entry (the QR of a dense
[A, b], the leverage scores, the flex sketches) carries its construction
in both. BLAS runs one thread unless OPENBLAS_NUM_THREADS says otherwise.
Nothing is written to disk.

Exit status: 0, 2 on a config error (a ``--set`` that is not KEY=VALUE
with a ``problem.`` or ``solver.`` key, or a key no solver or problem
reads, among them), 3 when a solver raises (as for ``randkrylov run``).
"""

import os

# one BLAS thread, set before numpy is first imported: a forked child
# copies only the thread that forks
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402

from randkrylov.cli import (  # noqa: E402
    ConfigError,
    SolverError,
    _solver_call,
    _solver_names,
    build_problem,
    parse_config,
    run_solver,
)


def solver_peaks(cfg):
    """[(solver name, traced peak, RSS growth)] in configuration order, in
    bytes."""
    inst = build_problem(cfg)
    names = _solver_names(cfg)
    if not names:
        raise ConfigError("no solvers configured")
    for name in names:  # every solver's keys, before any solver runs
        _solver_call(name, cfg, inst)
    peaks = []
    for name in names:
        rss = _rss_growth(name, cfg, inst)
        tracemalloc.start()
        try:
            run_solver(name, cfg, inst)
            peaks.append((name, tracemalloc.get_traced_memory()[1], rss))
        finally:
            tracemalloc.stop()
    return peaks


_M_MMAP_THRESHOLD = -3  # glibc's mallopt parameter
_MADV_POPULATE_READ = 22  # Linux 5.14 and later


def _rss_growth(name, cfg, inst):
    """ru_maxrss growth of one run of solver ``name`` in a forked child
    (whose high-water mark starts at its resident size), or None when the
    child fails; then the traced run in this process raises as well."""
    libc = ctypes.CDLL(None)
    gc.collect()
    getattr(libc, "malloc_trim", lambda pad: 0)(0)
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read)
        try:
            getattr(libc, "mallopt", lambda param, value: 0)(
                _M_MMAP_THRESHOLD, 128 * 1024)
            _map_file_pages(libc)
            start = _resident_bytes()
            run_solver(name, cfg, inst)
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
            os.write(write, str(peak - start).encode())
        finally:
            os._exit(0)
    os.close(write)
    with os.fdopen(read) as fh:
        text = fh.read()
    os.waitpid(pid, 0)
    return int(text) if text else None


def _map_file_pages(libc):
    """Fault in every page of this process's readable file mappings: a
    forked child maps them again as it touches them, which would count the
    libraries' pages as the solver's. Best effort: a kernel without
    MADV_POPULATE_READ leaves them to be counted."""
    with open("/proc/self/maps", errors="replace") as fh:
        for line in fh:
            fields = line.split()
            if len(fields) >= 6 and fields[5].startswith("/") and \
                    "r" in fields[1]:
                start, end = (int(x, 16) for x in fields[0].split("-"))
                libc.madvise(ctypes.c_void_p(start), ctypes.c_size_t(
                    end - start), _MADV_POPULATE_READ)


def _resident_bytes():
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


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
    for name, peak, rss in peaks:
        growth = "n/a" if rss is None else f"{rss / 2**20:.2f}"
        print(f"{name:<28} {peak / 2**20:10.2f} MiB traced, "
              f"{growth:>8} MiB RSS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
