#!/usr/bin/env python3
"""One repetition of one workload, in a fresh process.

Writes the workload's config into ``--out``, runs ``randkrylov run`` on it
through ``randkrylov.cli.main`` with ``--threads 1``, and writes
``result.json`` next to the program's outputs: exit code, wall time, set-up
time, operator counts, with ``--memory 1`` the peak memory and with
``--trace 1`` the spans. A solver that raises makes ``randkrylov run`` exit
non-zero with no outputs; that is a result too, not a worker failure.

Usage: python3 perfbench/worker.py --workload tomo --seed 31 --out DIR
       [--trace 0|1] [--memory 0|1]
"""

from __future__ import annotations

import common

common.pin_threads()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_SETUP_SAMPLES = 2
SETUP_SAMPLE_S = 0.2  # keep taking set-up samples after the run this long


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--memory", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    cli = common.import_program()
    os.makedirs(args.out, exist_ok=True)
    cfg_path = os.path.join(args.out, "workload.cfg")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        fh.write(WORKLOADS[args.workload].config(args.seed))

    original_build_problem = cli.build_problem
    rec = tracing.Recorder(traced=bool(args.trace), memory=bool(args.memory))
    rec.install()

    argv = ["run", "--config", cfg_path, "--out", args.out, "--threads", "1"]
    summary = io.StringIO()
    with contextlib.redirect_stdout(summary):
        t0 = time.perf_counter()
        root = rec.open("cli.run") if rec.traced else None
        rc = cli.main(argv)
        if root is not None:
            rec.close(root)
        wall = time.perf_counter() - t0
    peak_end = tracing.peak_rss_bytes()
    if rec.setup_s is None:
        raise common.BenchError("cli.build_problem was never called")

    # More set-up samples, taken after the run so that they disturb neither
    # its time nor its memory peak: while SETUP_SAMPLE_S lasts, and at least
    # one more. One set-up takes from 2 ms (deblur) to 0.2 s (tomo). A traced
    # run takes none: its spans would record them.
    setup_samples = [rec.setup_s]
    cfg = cli.parse_config(cfg_path)
    while not rec.traced and (len(setup_samples) < MIN_SETUP_SAMPLES
                              or sum(setup_samples) < SETUP_SAMPLE_S):
        t = time.perf_counter()
        original_build_problem(cfg)
        setup_samples.append(time.perf_counter() - t)

    result = {
        "rc": rc,
        "setup_s": statistics.median(setup_samples),
        "solve_s": wall - rec.setup_s,
        "counts": rec.count_totals(),
        "matvecs_by_solver": rec.per_solver_matvecs(),
    }
    if rec.memory:
        result["peak_mem_mb"] = (peak_end - rec.rss_after_setup) / 2**20
        result["setup_peak_mb"] = rec.setup_peak_bytes / 2**20
    if rec.traced:
        result["spans"] = rec.spans
    with open(os.path.join(args.out, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
