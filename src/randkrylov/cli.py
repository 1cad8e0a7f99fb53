"""Config-driven experiment runner. No solver is here: this module parses
and validates the config, dispatches to ``irn``, ``flex`` and ``baselines``,
caches what the solvers build once per problem, and writes and reads the
trace CSV of ``_TRACE_SCHEMA``.

Subcommands:
  gen     write a problem bundle directory from the [problem] keys
  run     solve the configured problem with every configured solver, write
          each solver's trace CSV and solution vector as it finishes, then a
          summary
  report  tabulate one or more trace CSVs

Config files are flat ``key = value`` lines with dotted section keys, e.g.::

    problem.generator = subset_selection
    problem.m = 2000
    problem.n = 400
    problem.seed = 7
    problem.nl = 0.05
    problem.noise_seed = 11
    solver.irn-lsqr.family = irn
    solver.irn-lsqr.seed = 1
    solver.irn-lsqr.lambda = 100.0
    output.dir = out

Exit codes: 0 success, 2 config/validation error (nothing is written), 3
solver error (the solvers that finished first keep their outputs; no summary).
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import io
import json
import os
import sys
import threading
import weakref

import numpy as np

from . import problems as prob_mod
from .baselines import fista_solve, krylov_baseline_solve
from .flex import (
    FlexSolverConfig,
    exact_flex_solve,
    s2p_flex_solve,
    sns_flex_solve,
)
from .irn import (
    IRNConfig,
    TraceRow,
    _dense_system_matrix,
    _reduce_system,
    irn_s2p_solve,
    irn_solve,
)
from .operators import DenseOperator, IdentityOperator
from .regparam import LambdaPolicy
from .sketching import (
    build_flex_sketches,
    build_leverage_sketch,
    estimate_leverage_scores,
)
from .weights import WeightSpec

# The trace CSV, one (column, TraceRow field, cell parser) per column. The
# first column holds the solver's name, which is no row field.
_TRACE_SCHEMA = (
    ("solver", None, None),
    ("outer_iter", "outer", int),
    ("cum_inner_iter", "cum_inner", int),
    ("rel_error", "rel_error", lambda cell: float(cell or "nan")),
    ("objective_mm", "objective_mm", float),
    ("objective_literal", "objective_literal", float),
    ("lambda", "lam", float),
    ("eps_hat", "eps_hat", lambda cell: float(cell or "nan")),
    ("mono_cond_satisfied", "mono_satisfied",
     lambda cell: cell == "1" if cell else None),
    ("breakdown_flag", "breakdown", lambda cell: cell == "1"),
)
CSV_COLUMNS = [column for column, _, _ in _TRACE_SCHEMA]
_SUMMARY_COLUMNS = ["solver", "best_rel_error", "iters_to_threshold",
                   "final_objective_mm", "monotonicity_violations"]


class ConfigError(Exception):
    pass


class SolverError(Exception):
    pass


def parse_config(path):
    """Flat key-value config with dotted keys; '#' starts a comment."""
    cfg = {}
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    with fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, value = line.split("=", 1)
            cfg[key.strip()] = value.strip()
    return cfg


class _Section(dict):
    """One config section; ``read`` holds every key looked up in it."""

    def __contains__(self, key):
        self.read.add(key)
        return super().__contains__(key)


def _section(cfg, prefix):
    plen = len(prefix) + 1
    sec = _Section((k[plen:], v) for k, v in cfg.items()
                   if k.startswith(prefix + "."))
    sec.read = set()
    return sec


def _solver_names(cfg):
    return list(dict.fromkeys(key.split(".")[1] for key in cfg
                              if key.startswith("solver.")))


def _get(sec, key, cast, default=None, required=False):
    if key not in sec:
        if required:
            raise ConfigError(f"missing required key {key!r}")
        return default
    try:
        return cast(sec[key])
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {sec[key]!r}") from exc


# ---------------------------------------------------------------------------
# problem construction and bundles

def build_problem(cfg, seed_override=None):
    sec = _section(cfg, "problem")
    gen = _get(sec, "generator", str, required=True)
    if gen == "bundle":
        return load_bundle(_get(sec, "bundle", str, required=True))
    seed = _get(sec, "seed", int, required=True)
    if seed_override is not None:
        seed = seed_override
    try:  # the generators validate their arguments with ValueError
        if gen == "subset_selection":
            inst = prob_mod.gen_subset_selection(
                _get(sec, "m", int, required=True),
                _get(sec, "n", int, required=True),
                _get(sec, "rho", float, 0.95),
                _get(sec, "bern_p", float, 0.1),
                seed,
            )
        elif gen == "starfield":
            inst = prob_mod.gen_starfield_deblur(
                _get(sec, "nx", int, required=True),
                _get(sec, "density", float, 0.072),
                _get(sec, "sigma_blur", float, 2.0),
                seed,
            )
        elif gen == "tomo":
            inst = prob_mod.gen_tomo(
                _get(sec, "nx", int, required=True),
                _get(sec, "n_angles", int, 18),
                _get(sec, "n_rays", int, None),
                seed,
            )
        elif gen == "identity":
            n = _get(sec, "n", int, required=True)
            rng = np.random.Generator(np.random.Philox(seed))
            x_true = rng.standard_normal(n)
            inst = prob_mod.ProblemInstance(
                A=IdentityOperator(n), b=x_true.copy(),
                b_exact=x_true.copy(), x_true=x_true, nl=0.0, seed=seed,
                descriptor=f"identity n={n}",
            )
        else:
            raise ConfigError(f"unknown problem generator {gen!r}")
        nl = _get(sec, "nl", float, 0.0)
        if nl > 0.0:
            inst = prob_mod.add_noise(
                inst, nl, _get(sec, "noise_seed", int, seed + 1)
            )
    except ValueError as exc:
        raise ConfigError(f"problem: {exc}") from exc
    return inst


def write_bundle(inst, outdir):
    os.makedirs(outdir, exist_ok=True)
    meta = {
        "descriptor": inst.descriptor,
        "nrows": inst.A.nrows,
        "ncols": inst.A.ncols,
        "kind": inst.A.kind,
        "nl": inst.nl,
        "seed": inst.seed,
    }
    for name, vec in (("x_true", inst.x_true), ("b", inst.b),
                      ("b_exact", inst.b_exact)):
        vec.astype("<f8").tofile(os.path.join(outdir, f"{name}.f64"))
    if inst.A.kind in ("dense", "radon", "convolution2d", "identity"):
        inst.A.materialize().astype("<f8").tofile(
            os.path.join(outdir, "A.f64")
        )
    with open(os.path.join(outdir, "A.meta.json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_bundle(path):
    """The instance ``write_bundle`` wrote to ``path``. A missing or
    unreadable file, an array of the wrong size or a non-finite entry raises
    ConfigError."""
    try:
        with open(os.path.join(path, "A.meta.json"), "r",
                  encoding="utf-8") as fh:
            meta = json.load(fh)
        m, n = int(meta["nrows"]), int(meta["ncols"])
        nl, seed, descriptor = meta["nl"], meta["seed"], meta["descriptor"]
        if not os.path.exists(os.path.join(path, "A.f64")):
            raise ConfigError(f"bundle {path} has no materialized operator")
        data = {name: np.fromfile(os.path.join(path, f"{name}.f64"),
                                  dtype="<f8")
                for name in ("x_true", "b", "b_exact", "A")}
    except (OSError, ValueError, KeyError) as exc:
        raise ConfigError(f"cannot read bundle {path}: {exc!r}") from exc
    for name, size in (("x_true", n), ("b", m), ("b_exact", m), ("A", m * n)):
        if data[name].size != size:
            raise ConfigError(f"bundle {path}: {name} has {data[name].size} "
                              f"entries, expected {size}")
        if not np.all(np.isfinite(data[name])):
            raise ConfigError(f"bundle {path}: {name} has non-finite entries")
    return prob_mod.ProblemInstance(
        A=DenseOperator(data["A"].reshape(m, n)), b=data["b"],
        b_exact=data["b_exact"], x_true=data["x_true"], nl=nl, seed=seed,
        descriptor=descriptor,
    )


# ---------------------------------------------------------------------------
# solver dispatch

# What the solvers build from each problem, once per problem: IRN's QR of a
# dense [A, b], the irn-s2p leverage scores of A and the flex sketches of
# each (b, k_max, multiplier, seed). An entry lives only as long as its A
# and holds no reference to it, so no run's problem outlives the run.
_problem_lock = threading.Lock()
_problem_cache = weakref.WeakKeyDictionary()


def _per_problem(A, key, build):
    """build(), once per A and key, also when solvers run in threads."""
    with _problem_lock:
        cache = _problem_cache.setdefault(A, {})
        if key not in cache:
            cache[key] = build()
        return cache[key]


def _reduced(A, b):
    """IRN's reduced system of a dense A and b, once per problem; None for a
    matrix-free A, which IRN reduces only when it materializes A anyway."""
    if not hasattr(A, "matrix"):
        return None
    return _per_problem(A, ("reduced", b.tobytes()),
                        lambda: _reduce_system(A.matrix, b))


def _solver_call(name, cfg, inst):
    """The solve of solver ``name`` as a zero-argument callable. Every key is
    parsed and validated here (a bad one raises ConfigError); no sketch,
    leverage score or QR is computed until the callable runs."""
    sec = _section(cfg, f"solver.{name}")
    try:  # the configs validate themselves with ValueError
        family = _get(sec, "family", str, required=True)
        seed = _get(sec, "seed", int, required=True)
        k_max = _get(sec, "k_max", int, 50)
        weight = WeightSpec(p=_get(sec, "p", float, 1.0),
                            tau=_get(sec, "tau", float, 1e-10))
        kind = _get(sec, "lambda_policy", str, "fixed")
        policy = LambdaPolicy(
            kind=kind, lam=_get(sec, "lambda", float, 1.0),
            nl=_get(sec, "nl", float, inst.nl),
            tau_lambda=_get(sec, "tau_lambda", float, 1.01),
            x_true=inst.x_true if kind == "optimal" else None)
        if kind != "fixed" and family in ("fista", "lsqr", "gmres"):
            raise ConfigError(f"family {family!r} has no lambda rule")
        if family in ("irn", "irn_s2p"):
            config = IRNConfig(
                weight=weight,
                outer_max=_get(sec, "outer_max", int, k_max),
                inner_tol=_get(sec, "inner_tol", float, 1e-8),
                inner_max=_get(sec, "inner_max", int, None),
                lambda_policy=policy,
            )
        elif family == "flex":
            ell_raw = _get(sec, "ell", str, "4")
            scheme = _get(sec, "scheme", str, "sketch_and_solve")
            config = FlexSolverConfig(
                basis=_get(sec, "basis", str, "golub_kahan"),
                mode=_get(sec, "mode", str, "irw"),
                scheme=scheme,
                ell=None if ell_raw == "full" else int(ell_raw),
                k_max=k_max,
                weight=weight,
                lambda_policy=policy,
                inner_tol=_get(sec, "inner_tol", float, 1e-10) if (
                    scheme == "sketch_to_precondition") else 1e-10,
            )
        elif family in ("lsqr", "gmres"):
            if family == "gmres" and "lambda" in sec:
                raise ConfigError("family 'gmres' takes no lambda")
            lam = _get(sec, "lambda", float, 0.0)
            tol = _get(sec, "tol", float, 1e-12)
        elif family != "fista":
            raise ConfigError(f"unknown solver family {family!r}")
        sketched = family == "irn_s2p" or (family == "flex"
                                           and scheme != "exact")
        mult = _get(sec, "sketch_multiplier", int, 4) if sketched else 1
        if k_max < 1 or mult < 1:
            raise ConfigError("k_max and sketch_multiplier must be at least 1")
        unknown = sorted(set(sec) - sec.read)
        if unknown:
            raise ConfigError(f"unknown key(s) {', '.join(unknown)}")
    except (ConfigError, ValueError) as exc:
        raise ConfigError(f"solver {name!r}: {exc}") from exc

    A, b, x_true = inst.A, inst.b, inst.x_true
    if family == "irn":
        return lambda: irn_solve(A, b, config, x_true, _reduced(A, b))
    if family == "irn_s2p":
        def solve():
            p = _per_problem(A, "leverage", lambda: estimate_leverage_scores(
                _dense_system_matrix(A)))
            S = build_leverage_sketch(p, mult * A.ncols, seed)
            return irn_s2p_solve(A, b, config, S, x_true, _reduced(A, b))
        return solve
    if family == "flex":
        if config.scheme == "exact":
            return lambda: exact_flex_solve(A, b, config, x_true)
        solver = (sns_flex_solve if config.scheme == "sketch_and_solve"
                  else s2p_flex_solve)

        def solve():
            S1, S2 = _per_problem(
                A, ("flex", b.tobytes(), k_max, mult, seed),
                lambda: build_flex_sketches(A, b, k_max, mult, seed))
            return solver(A, b, config, S1, S2, x_true)
        return solve
    if family == "fista":
        return lambda: fista_solve(A, b, policy.lam, n_iter=k_max,
                                   weight=weight, x_true=x_true)

    return lambda: krylov_baseline_solve(A, b, family, lam, tol, k_max,
                                         weight, x_true)


def run_solver(name, cfg, inst):
    """The SolveResult of solver ``name``: ConfigError for a bad key,
    SolverError for a solve that raises."""
    solve = _solver_call(name, cfg, inst)
    try:
        return solve()
    except Exception as exc:
        raise SolverError(str(exc)) from exc


# ---------------------------------------------------------------------------
# output

def _fmt(v):
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (float, np.floating)):
        return f"{v:.17g}"
    return str(v)


def _csv_text(rows):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def trace_to_csv(name, result):
    return _csv_text([CSV_COLUMNS] + [
        [name if field is None else _fmt(getattr(row, field))
         for _, field, _ in _TRACE_SCHEMA] for row in result.trace])


def _atomic_write(path, text):
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)


def summarize_traces(rows_by_solver, threshold=None):
    """Per-solver summary of each solver's TraceRows: best relative error,
    iterations to threshold, final mm objective, and monotonicity-violation
    count."""
    out = []
    for name, rows in rows_by_solver.items():
        errs = [r.rel_error for r in rows if not np.isnan(r.rel_error)]
        objs = [r.objective_mm for r in rows]
        best = min(errs) if errs else float("nan")
        thr = threshold if threshold is not None else 1.05 * best
        # a NaN error or threshold compares false
        to_thr = next((r.cum_inner for r in rows if r.rel_error <= thr), "")
        # a rise counts only between rows minimizing the same functional
        slack = 1e-8 * objs[0] if objs else 0.0
        viol = sum(1 for a, c in zip(rows, rows[1:])
                   if c.lam == a.lam
                   and c.objective_mm > a.objective_mm + slack)
        final = objs[-1] if objs else float("nan")
        out.append(dict(zip(_SUMMARY_COLUMNS,
                            (name, best, to_thr, final, viol))))
    return out


def read_trace(path):
    """The solver name (the file name when the trace has no rows) and the
    TraceRows of the trace CSV at ``path``; ConfigError for a file that
    cannot be read, a schema mismatch, a short row or a malformed cell."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames != CSV_COLUMNS:
                missing = set(CSV_COLUMNS) - set(reader.fieldnames or [])
                raise ConfigError(
                    f"{path}: trace schema mismatch, missing column(s) "
                    f"{sorted(missing)}"
                )
            recs = list(reader)
        rows = [TraceRow(**{field: parse(rec[column])
                            for column, field, parse in _TRACE_SCHEMA
                            if field})
                for rec in recs]
    except (OSError, csv.Error, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return (recs[0][CSV_COLUMNS[0]] if recs else os.path.basename(path)), rows


def _write_summary(outdir, summaries):
    _atomic_write(os.path.join(outdir, "summary.csv"), _csv_text(
        [_SUMMARY_COLUMNS] + [[_fmt(s[col]) for col in _SUMMARY_COLUMNS]
                             for s in summaries]))
    lines = ["{:<28} {:>14} {:>10} {:>16} {:>6}".format(
        "solver", "best_rel_err", "to_thr", "final_F", "viol")]
    for s in summaries:
        lines.append("{:<28} {:>14.6g} {:>10} {:>16.8g} {:>6}".format(
            s["solver"], s["best_rel_error"], str(s["iters_to_threshold"]),
            s["final_objective_mm"], s["monotonicity_violations"]))
    text = "\n".join(lines) + "\n"
    _atomic_write(os.path.join(outdir, "summary.txt"), text)
    return text


# ---------------------------------------------------------------------------
# commands

def cmd_gen(args):
    cfg = parse_config(args.config)
    inst = build_problem(cfg, args.seed_override)
    outdir = args.out or _get(_section(cfg, "output"), "dir", str, "out")
    write_bundle(inst, outdir)
    print(f"wrote bundle to {outdir} ({inst.descriptor})")
    return 0


def cmd_run(args):
    cfg = parse_config(args.config)
    names = _solver_names(cfg)
    if not names:
        raise ConfigError("no solvers configured")
    inst = build_problem(cfg, args.seed_override)
    for name in names:  # every solver's keys, before any solver runs
        _solver_call(name, cfg, inst)
    outdir = args.out or _get(_section(cfg, "output"), "dir", str, "out")
    os.makedirs(outdir, exist_ok=True)

    def _one(name):
        """Solve, write the outputs and keep only the trace: the final x
        is released before the next solver starts."""
        result = run_solver(name, cfg, inst)
        _atomic_write(os.path.join(outdir, f"{name}.trace.csv"),
                      trace_to_csv(name, result))
        result.x.astype("<f8").tofile(os.path.join(outdir, f"{name}.x.f64"))
        sidecar = {"solver": name, "n": int(result.x.size),
                   "descriptor": inst.descriptor, "seed": inst.seed}
        _atomic_write(os.path.join(outdir, f"{name}.x.json"),
                      json.dumps(sidecar, indent=2, sort_keys=True) + "\n")
        return name, result.trace

    if args.threads > 1:
        with concurrent.futures.ThreadPoolExecutor(args.threads) as pool:
            traces = dict(pool.map(_one, names))
    else:
        traces = dict(map(_one, names))
    text = _write_summary(outdir, summarize_traces(traces))
    print(text, end="")
    return 0


def cmd_report(args):
    if not args.traces:
        raise ConfigError("report needs at least one trace file")
    rows_by_solver, paths = {}, {}
    for path in args.traces:
        name, rows = read_trace(path)
        if name in rows_by_solver:
            raise ConfigError(f"solver {name!r} has a trace in both "
                              f"{paths[name]} and {path}")
        rows_by_solver[name], paths[name] = rows, path
    outdir = args.out or "."
    os.makedirs(outdir, exist_ok=True)
    text = _write_summary(outdir, summarize_traces(
        rows_by_solver, threshold=args.threshold))
    print(text, end="")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="randkrylov",
        description="Randomized flexible Krylov experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="write a problem bundle")
    p_gen.add_argument("--config", required=True)
    p_gen.add_argument("--out")
    p_gen.add_argument("--seed-override", type=int, default=None)
    p_gen.set_defaults(func=cmd_gen)

    p_run = sub.add_parser("run", help="run the configured solvers")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out")
    p_run.add_argument("--seed-override", type=int, default=None)
    p_run.add_argument("--threads", type=int, default=1)
    p_run.set_defaults(func=cmd_run)

    p_rep = sub.add_parser("report", help="summarize trace files")
    p_rep.add_argument("traces", nargs="*")
    p_rep.add_argument("--out")
    p_rep.add_argument("--threshold", type=float, default=None)
    p_rep.set_defaults(func=cmd_report)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
