#!/usr/bin/env python3
"""Benchmark of the three desk experiments through ``randkrylov run``.

Usage:
    python3 perfbench/run.py --workload regression|deblur|tomo
        [--seed N] [--seconds S] [--trace 0|1]

Runs one memory repetition, then timing repetitions until ``--seconds`` are
spent (at least two), each in a fresh worker process with one BLAS thread.
Checks every solver's output (``checks.py``) and that counts, trace CSVs and
solutions repeat exactly, and reports the memory repetition's peak and the
medians of the timing repetitions. With ``--trace 1`` it then runs two
traced repetitions and reports the per-layer metrics instead of the
end-to-end ones. Every solver run of every repetition is one operation; all
of a repetition's solver runs fail when the program exits non-zero, since it
then writes no outputs.

The seed is the solvers' seed, which draws the sketches and the distortion
probes; the problem and its noise are the experiment script's on every run.
It defaults to the script's solver seed. The report goes to standard output,
and its last line is one JSON object: ``{"correct", "attempted", "failed",
"metrics"}``. Exit code 1 means the benchmark itself could not run (no
``src/``, a worker that crashed or ran out of time, an entry point that is
gone); no JSON line is printed then.
"""

from __future__ import annotations

import common

common.pin_threads()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

MIN_REPS = 2
TRACED_REPS = 2
DEADLINE_S = 170.0  # every run must end within 180 s
CLOSURE_RTOL = 1e-9
# A fixed hash seed fixes the order of sets and dicts, and with it the
# allocation pattern.
WORKER_ENV = dict(os.environ, PYTHONHASHSEED="0")
# Peak memory is measured in a repetition of its own, with glibc's mmap
# threshold held at its initial 128 KiB: every large array is then mapped
# and unmapped with its lifetime, so the peak follows the arrays alive at
# once. Under the default, adaptive threshold and random hash seeds, five
# runs of the same deblur run peaked between 18.5 and 21.2 MB, depending on
# where freed blocks landed; with both fixed, at 16.9 MB each time. The
# fixed threshold costs time, so this repetition's times are not used.
MEMORY_ENV = dict(WORKER_ENV, MALLOC_MMAP_THRESHOLD_="131072")

END_TO_END_UNITS = {
    "setup_s": "s",
    "solve_s": "s",
    "matvecs": "count",
    "inner_iters": "count",
    "peak_mem_mb": "MB",
}


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("us_per_apply"):
        return "us"
    return "count"


def run_worker(workload, seed, outdir, timeout, trace=0, memory=0):
    """One repetition in a fresh process; its result dict."""
    cmd = [sys.executable, os.path.join(common.BENCH_DIR, "worker.py"),
           "--workload", workload, "--seed", str(seed), "--out", outdir,
           "--trace", str(trace), "--memory", str(memory)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              env=MEMORY_ENV if memory else WORKER_ENV,
                              timeout=max(timeout, 1.0), check=False)
    except subprocess.TimeoutExpired as exc:
        raise common.BenchError(f"worker ran out of time ({timeout:.0f} s)") from exc
    if proc.returncode != 0:
        raise common.BenchError(f"worker exited {proc.returncode}:\n{proc.stderr}")
    with open(os.path.join(outdir, "result.json"), encoding="utf-8") as fh:
        result = json.load(fh)
    if result["rc"] != 0:
        print(f"  randkrylov run exited {result['rc']}:\n{proc.stderr}",
              file=sys.stderr)
    return result


def digest(outdir, solvers):
    """SHA-256 of every trace CSV and solution vector the run wrote."""
    out = {}
    for name in solvers:
        for suffix in (".trace.csv", ".x.f64"):
            path = os.path.join(outdir, name + suffix)
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    out[name + suffix] = hashlib.sha256(fh.read()).hexdigest()
    return out


def inner_iterations(outdir, solvers, checks):
    """Each solver's final cum_inner_iter, read from its trace CSV."""
    return {name: int(checks.read_trace(
        os.path.join(outdir, f"{name}.trace.csv"))[-1]["cum_inner_iter"])
        for name in solvers}


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    if seed < 0:
        raise common.BenchError("seeds must be non-negative")
    t_start = time.monotonic()
    cli = common.import_program()
    import checks  # imports numpy, so only after the thread pinning

    env = common.environment_record()
    env["worker_PYTHONHASHSEED"] = WORKER_ENV["PYTHONHASHSEED"]
    env["memory_rep_MALLOC_MMAP_THRESHOLD_"] = MEMORY_ENV["MALLOC_MMAP_THRESHOLD_"]
    run_dir = os.path.join(common.WORK_DIR,
                           f"{workload.name}-seed{seed}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    cfg_path = os.path.join(run_dir, "workload.cfg")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        fh.write(workload.config(seed))
    cfg = cli.parse_config(cfg_path)
    checker = checks.Checker(workload, cfg, cli.build_problem(cfg))

    problems = list(checker.problem_failures)
    attempted = failed = 0
    reps, traced = [], []
    expected = None  # (digest, inner iterations, matvecs) of the first rep

    def check_rep(result, outdir, kind):
        """Check one repetition's outputs and count its solver runs."""
        nonlocal attempted, failed, expected
        attempted += len(workload.solvers)
        ran = workload.solvers if result["rc"] == 0 else ()
        failed += len(workload.solvers) - len(ran)
        if not ran:
            print(f"  FAILED {kind} repetition: randkrylov run exited "
                  f"{result['rc']} and wrote no outputs", file=sys.stderr)
        for name in ran:
            bad = checker.check_solver(name, outdir)
            if bad:
                failed += 1
                print("  FAILED " + "; ".join(bad), file=sys.stderr)
        counts = result["counts"]
        observed = (digest(outdir, ran),
                    inner_iterations(outdir, ran, checks),
                    result["matvecs_by_solver"])
        if expected is None:
            expected = observed
        elif observed != expected:
            problems.append(f"{kind} repetition differs from the first: "
                            "outputs or counts did not repeat exactly")
        result["matvecs"] = counts.get("operators.apply", 0) + counts.get(
            "operators.adjoint", 0)
        result["inner_iters"] = sum(observed[1].values())
        shutil.rmtree(outdir, ignore_errors=True)
        return result

    outdir = os.path.join(run_dir, "memory")
    memory = check_rep(run_worker(workload.name, seed, outdir, DEADLINE_S,
                                  memory=1), outdir, "memory")
    durations = []
    while True:
        outdir = os.path.join(run_dir, f"rep{len(durations)}")
        t_rep = time.monotonic()
        timeout = DEADLINE_S - (t_rep - t_start)
        reps.append(check_rep(run_worker(workload.name, seed, outdir, timeout),
                              outdir, "timing"))
        durations.append(time.monotonic() - t_rep)
        elapsed = time.monotonic() - t_start
        if len(durations) >= MIN_REPS and (
                elapsed + statistics.median(durations) > args.seconds):
            break

    if args.trace:
        from tracing import closure, layer_metrics

        for i in range(TRACED_REPS):
            outdir = os.path.join(run_dir, f"traced{i}")
            timeout = DEADLINE_S - (time.monotonic() - t_start)
            result = check_rep(run_worker(workload.name, seed, outdir, timeout,
                                          trace=1), outdir, "traced")
            spans = result.pop("spans")
            result["layers"] = layer_metrics(spans, result["counts"])
            for what, (wall, total) in closure(spans).items():
                if abs(total - wall) > CLOSURE_RTOL * max(wall, 1e-3):
                    problems.append(f"{what}: self-time metrics add to "
                                    f"{total!r} s, wall {wall!r} s")
            traced.append(result)
        layer_counts = [{k: v for k, v in t["layers"].items()
                         if layer_unit(k) == "count"} for t in traced]
        if any(c != layer_counts[0] for c in layer_counts):
            problems.append("per-layer counts differ between traced runs")

    def median(key, runs):
        return statistics.median(r[key] for r in runs)

    e2e = {
        "setup_s": median("setup_s", reps),
        "solve_s": median("solve_s", reps),
        "matvecs": reps[0]["matvecs"],
        "inner_iters": reps[0]["inner_iters"],
        "peak_mem_mb": memory["peak_mem_mb"],
    }
    if args.trace:
        layers = {k: v if layer_unit(k) == "count"
                  else statistics.median(t["layers"][k] for t in traced)
                  for k, v in traced[0]["layers"].items()}
        layers["trace.overhead_s"] = median("solve_s", traced) - e2e["solve_s"]
        metrics = {k: {"value": v, "unit": layer_unit(k)}
                   for k, v in layers.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in e2e.items()}

    report = {
        "workload": workload.name,
        "seed": seed,
        "seconds": args.seconds,
        "environment": env,
        "repetitions": [{k: r[k] for k in ("setup_s", "solve_s")} for r in reps],
        "setup_peak_mb": memory["setup_peak_mb"],
        "matvecs_by_solver": reps[0]["matvecs_by_solver"],
        "inner_iters_by_solver": expected[1],
        "end_to_end": e2e,
        "per_layer": {k: v["value"] for k, v in metrics.items()} if args.trace
        else None,
        "problems": problems,
    }
    with open(os.path.join(run_dir, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print_report(report, attempted, failed)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def print_report(report, attempted, failed):
    env = report["environment"]
    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"repetitions {len(report['repetitions'])}")
    print(f"cores {env['cpu_count']} (usable {env['cpus_usable']})  threads "
          + " ".join(f"{k}={v}" for k, v in env["threads"].items()))
    print(f"python {env['python']}  numpy {env['numpy']} ({env['numpy_blas']})  "
          f"scipy {env['scipy']} ({env['scipy_blas']})")
    print(f"worker PYTHONHASHSEED={env['worker_PYTHONHASHSEED']}  memory "
          "repetition MALLOC_MMAP_THRESHOLD_="
          f"{env['memory_rep_MALLOC_MMAP_THRESHOLD_']}")
    for i, rep in enumerate(report["repetitions"]):
        print(f"  rep {i}: setup {rep['setup_s']:.4f} s  solve {rep['solve_s']:.3f} s")
    print(f"  set-up peak {report['setup_peak_mb']:.2f} MB above the level after "
          "set-up (not in peak_mem_mb)")
    for name, n in report["matvecs_by_solver"].items():
        iters = report["inner_iters_by_solver"].get(name, "none")
        print(f"  {name:<20} matvecs {n:>6}  inner_iters {iters:>6}")
    for name, value in report["end_to_end"].items():
        print(f"{name:<14} {value:.6g} {END_TO_END_UNITS[name]}")
    for name, value in (report["per_layer"] or {}).items():
        print(f"  {name:<30} {value:.6g} {layer_unit(name)}")
    for problem in report["problems"]:
        print(f"PROBLEM: {problem}")
    print(f"solver runs attempted {attempted}, failed {failed}")


if __name__ == "__main__":
    try:
        sys.exit(main())
    except common.BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(1)
