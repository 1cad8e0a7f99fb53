"""Counters and spans recorded around the program's public entry points.

Nothing under ``src/`` is changed: each entry point is resolved by module
and name and replaced, in every ``randkrylov`` module that binds it, by a
wrapper that records a span (name, start, end, parent, solver) and counts.
A name that no longer exists raises ``BenchError`` instead of reporting
0 s, so a change that renames or merges an entry point must update
``SPANS`` here.

The untraced run installs only what the end-to-end metrics need: the
problem operator's apply counters and the set-up timer. The traced run
installs every span. Spans stay in memory; the worker writes them out when
the run ends.
"""

from __future__ import annotations

import ctypes
import gc
import importlib
import os
import resource
import sys
import time
from collections import Counter

from common import BenchError

# (span name, module, attribute path) of every traced entry point.
SPANS = (
    ("cli.run_solver", "cli", "run_solver"),
    ("cli.build_problem", "cli", "build_problem"),
    ("problems.generate", "problems", "gen_subset_selection"),
    ("problems.generate", "problems", "gen_starfield_deblur"),
    ("problems.generate", "problems", "gen_tomo"),
    ("problems.generate", "problems", "add_noise"),
    ("operators.construct", "operators", "DenseOperator.__init__"),
    ("operators.construct", "operators", "Convolution2DOperator.__init__"),
    ("operators.construct", "operators", "RadonOperator.__init__"),
    ("sketching.leverage", "sketching", "estimate_leverage_scores"),
    ("sketching.pilot", "cli", "build_flex_sketches"),
    ("sketching.distortion", "sketching", "measure_distortion"),
    ("weights.objective", "weights", "objective_value"),
    ("weights.majorant", "weights", "sketched_majorant_value"),
    ("krylov.expand", "krylov", "FlexibleFactorization.expand"),
    ("krylov.lsqr", "krylov", "lsqr_solve"),
    ("regparam.select", "irn", "_select_lambda"),
    ("regparam.select", "flex", "_select_projected_lambda"),
    ("regparam.select", "flex", "_select_s2p_lambda"),
    ("irn.loop", "irn", "irn_solve"),
    ("irn.loop", "irn", "irn_s2p_solve"),
    ("irn.precond", "irn", "build_partly_exact_preconditioner"),
    ("flex.loop", "flex", "sns_flex_solve"),
    ("flex.loop", "flex", "exact_flex_solve"),
    ("flex.loop", "flex", "s2p_flex_solve"),
    ("flex.projected", "flex", "solve_projected_tikhonov"),
    ("baselines.fista", "baselines", "fista_solve"),
)

# The per-layer metric that sums the self times of each span name. Every
# span must have one, so that the reported self times add up to the traced
# wall time (``closure``); a span with none raises ``BenchError``.
# sketching.pilot_s is reported inclusive, as well, beside its self time.
SELF_TIME_METRIC = {
    "cli.run": "cli.write_s",
    "cli.run_solver": "cli.dispatch_s",
    "cli.build_problem": "problems.generate_s",
    "problems.generate": "problems.generate_s",
    "operators.construct": "operators.construct_s",
    "operators.apply": "operators.apply_s",
    "operators.adjoint": "operators.apply_s",
    "operators.materialize": "operators.apply_s",
    "sketching.leverage": "sketching.leverage_s",
    "sketching.pilot": "sketching.pilot_self_s",
    "sketching.distortion": "sketching.distortion_s",
    "weights.objective": "weights.objective_s",
    "weights.majorant": "weights.majorant_s",
    "krylov.expand": "krylov.expand_s",
    "krylov.lsqr": "krylov.lsqr_s",
    "regparam.select": "regparam.select_s",
    "regparam.rule": "regparam.rule_s",
    "irn.loop": "irn.self_s",
    "irn.precond": "irn.precond_s",
    "flex.loop": "flex.self_s",
    "flex.projected": "flex.projected_s",
    "baselines.fista": "baselines.fista_s",
}

# Parameter rules whose first argument is the function of lambda they
# evaluate (the residual map of dp_select, the grid objective behind
# optimal_select, wgcv_select and gcv_full_select). Each evaluation is a
# "regparam.rule" span.
RULE_ARGS = (
    ("regparam", "dp_select"),
    ("regparam", "_grid_argmin"),
)

# Methods of the problem's own operator A whose calls are counted. Only the
# instance built by cli.build_problem is wrapped, so the diagonal and
# composite operators the solvers build around A are not counted.
OPERATOR_METHODS = (
    ("apply", "operators.apply"),
    ("apply_adjoint", "operators.adjoint"),
    ("materialize", "operators.materialize"),
)


def _module(short):
    return importlib.import_module(f"randkrylov.{short}")


def _resolve(short, path):
    owner = _module(short)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            raise BenchError(f"entry point randkrylov.{short}.{path} is gone")
    fn = getattr(owner, parts[-1], None)
    if fn is None or not callable(fn):
        raise BenchError(f"entry point randkrylov.{short}.{path} is gone")
    return owner, parts[-1], fn


def _rebind(owner, attr, fn, wrapper):
    """Replace fn by wrapper on its owner and, for a module-level function,
    in every randkrylov module that imported it by name."""
    setattr(owner, attr, wrapper)
    if isinstance(owner, type):
        return
    for modname, mod in list(sys.modules.items()):
        if modname == "randkrylov" or modname.startswith("randkrylov."):
            for name, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, name, wrapper)


def _malloc_trim():
    """glibc's malloc_trim, or a no-op where the C library has none."""
    return getattr(ctypes.CDLL(None), "malloc_trim", lambda _pad: 0)


MADV_POPULATE_READ = 22  # Linux 5.14 and later


def _map_file_pages():
    """Map every page of this process's readable file mappings (the
    interpreter, numpy, scipy, OpenBLAS).

    A forked child gets the parent's anonymous pages but maps file pages
    again as it touches them: without this, code that set-up had already
    run would add about 10 MB of library pages to the solve's peak.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    libc.madvise.argtypes = (ctypes.c_void_p, ctypes.c_size_t, ctypes.c_int)
    libc.madvise.restype = ctypes.c_int
    with open("/proc/self/maps", encoding="ascii") as fh:
        for line in fh:
            fields = line.split()
            if len(fields) < 6 or not fields[5].startswith("/") or "r" not in fields[1]:
                continue
            start, end = (int(x, 16) for x in fields[0].split("-"))
            if libc.madvise(start, end - start, MADV_POPULATE_READ) != 0:
                raise BenchError(f"madvise failed on {fields[5]}: "
                                 f"{os.strerror(ctypes.get_errno())}")


def rss_bytes():
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def peak_rss_bytes():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


class Recorder:
    """Counts per (solver, name) always; spans only when ``traced``."""

    def __init__(self, traced, memory=False):
        self.traced = traced
        self.memory = memory
        self.counts = Counter()
        self.spans = []  # [name, start, end, parent index, solver]
        self._stack = []
        self.solver = ""
        self.setup_s = None
        self.setup_peak_bytes = None
        self.rss_after_setup = None

    # --- spans -----------------------------------------------------------
    def open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.solver])
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        if self._stack.pop() != idx:
            raise BenchError("span stack out of order")

    def wrap(self, name, fn, on_result=None):
        counts = self.counts

        if not self.traced:
            def counted(*args, **kwargs):
                counts[self.solver, name] += 1
                return fn(*args, **kwargs)
            return counted

        def traced(*args, **kwargs):
            counts[self.solver, name] += 1
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if on_result is not None:
                on_result(result)
            return result
        return traced

    # --- installation ----------------------------------------------------
    def install(self):
        if self.traced:
            self._install_spans()
        cli = _module("cli")
        # the span wrappers, when traced: the timer and scope go outside them
        build_problem = _resolve("cli", "build_problem")[2]
        run_solver = _resolve("cli", "run_solver")[2]

        def timed_build_problem(*args, **kwargs):
            t0 = time.perf_counter()
            inst = build_problem(*args, **kwargs)
            self.setup_s = time.perf_counter() - t0
            if self.memory:
                self._continue_in_child()
            for method, name in OPERATOR_METHODS:
                setattr(inst.A, method, self.wrap(name, getattr(inst.A, method)))
            return inst

        def solver_scope(name, *args, **kwargs):
            self.solver = name
            try:
                return run_solver(name, *args, **kwargs)
            finally:
                self.solver = ""

        _rebind(cli, "build_problem", build_problem, timed_build_problem)
        _rebind(cli, "run_solver", run_solver, solver_scope)

    def _continue_in_child(self):
        """Go on with the solve in a forked child, whose peak RSS starts at
        its resident size after set-up.

        ``ru_maxrss`` never falls: in this process it would keep set-up's
        high-water mark (tomo's Siddon tracing builds lists of boxed
        floats), and a solve that stays below that mark could not move
        ``peak_mem_mb``. A forked child's high-water mark starts at its
        resident size at the fork. Set-up garbage is collected and handed
        back to the system first, so that the solve's allocations show as
        growth instead of reusing freed blocks. The parent waits and exits
        with the child's exit code; the child maps all its library pages,
        runs the solvers and writes the result.
        """
        with open("/proc/self/status", encoding="ascii") as fh:
            threads = int(fh.read().split("Threads:")[1].split()[0])
        if threads != 1:
            raise BenchError(f"{threads} threads at the fork; a fork copies one")
        self.setup_peak_bytes = peak_rss_bytes()
        gc.collect()
        _malloc_trim()(0)
        self.setup_peak_bytes -= rss_bytes()
        pid = os.fork()
        if pid:
            _pid, status = os.waitpid(pid, 0)
            os._exit(os.waitstatus_to_exitcode(status))
        _map_file_pages()
        self.rss_after_setup = rss_bytes()

    def _install_spans(self):
        hooks = {
            "krylov.lsqr": lambda res: self._add("krylov.lsqr_iters", res.n_iter),
            "irn.loop": lambda res: self._add("irn.outer_iters", len(res.trace)),
            "flex.loop": lambda res: self._add("flex.outer_iters", len(res.trace)),
        }
        for name, short, path in SPANS:
            owner, attr, fn = _resolve(short, path)
            _rebind(owner, attr, fn, self.wrap(name, fn, hooks.get(name)))
        for short, path in RULE_ARGS:
            owner, attr, fn = _resolve(short, path)
            _rebind(owner, attr, fn, self._wrap_rule(fn))

    def _wrap_rule(self, rule):
        def with_traced_evaluations(fun, *args, **kwargs):
            return rule(self.wrap("regparam.rule", fun), *args, **kwargs)
        return with_traced_evaluations

    def _add(self, name, amount):
        self.counts[self.solver, name] += amount

    # --- results ---------------------------------------------------------
    def count_totals(self):
        totals = Counter()
        for (_solver, name), n in self.counts.items():
            totals[name] += n
        return dict(totals)

    def per_solver_matvecs(self):
        out = Counter()
        for (solver, name), n in self.counts.items():
            if name in ("operators.apply", "operators.adjoint"):
                out[solver] += n
        return dict(out)


def self_times(spans):
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _name, start, end, _parent, _solver in spans]
    for i, (_name, start, end, parent, _solver) in enumerate(spans):
        if parent >= 0:
            own[parent] -= end - start
            pstart, pend = spans[parent][1], spans[parent][2]
            if start < pstart or end > pend:
                raise BenchError(f"span {i} lies outside its parent {parent}")
    return own


def self_time_metrics(spans, solver=None):
    """The self-time metrics of all spans, or of one solver run's spans."""
    own = self_times(spans)
    out = Counter()
    for (name, _start, _end, _parent, span_solver), t in zip(spans, own):
        if solver is None or span_solver == solver:
            metric = SELF_TIME_METRIC.get(name)
            if metric is None:
                raise BenchError(f"span {name} has no per-layer metric")
            out[metric] += t
    return out


def layer_metrics(spans, counts):
    """Per-layer metrics of one traced run, from its spans and counts."""
    self_s = self_time_metrics(spans)
    inclusive = Counter()
    for name, start, end, _parent, _solver in spans:
        inclusive[name] += end - start
    applies = counts.get("operators.apply", 0) + counts.get("operators.adjoint", 0)
    metrics = {name: self_s[name] for name in sorted(set(SELF_TIME_METRIC.values()))}
    metrics.update({
        "operators.apply_calls": counts.get("operators.apply", 0),
        "operators.adjoint_calls": counts.get("operators.adjoint", 0),
        "operators.us_per_apply":
            1e6 * self_s["operators.apply_s"] / applies if applies else 0.0,
        "operators.materialize_calls": counts.get("operators.materialize", 0),
        "sketching.leverage_calls": counts.get("sketching.leverage", 0),
        "sketching.pilot_s": inclusive["sketching.pilot"],
        "sketching.distortion_calls": counts.get("sketching.distortion", 0),
        "weights.objective_calls": counts.get("weights.objective", 0),
        "weights.majorant_calls": counts.get("weights.majorant", 0),
        "krylov.expand_calls": counts.get("krylov.expand", 0),
        "krylov.lsqr_calls": counts.get("krylov.lsqr", 0),
        "krylov.lsqr_iters": counts.get("krylov.lsqr_iters", 0),
        "regparam.select_calls": counts.get("regparam.select", 0),
        "regparam.rule_evals": counts.get("regparam.rule", 0),
        "irn.outer_iters": counts.get("irn.outer_iters", 0),
        "flex.outer_iters": counts.get("flex.outer_iters", 0),
    })
    return metrics


def closure(spans):
    """For the whole run and each solver run: the wall time, and the sum of
    the self-time metrics of its spans. The two must agree, so that the
    reported self times split the wall time with nothing left out."""
    rows = {}
    for name, start, end, parent, solver in spans:
        if parent < 0:
            rows["the run"] = (end - start, sum(self_time_metrics(spans).values()))
        elif name == "cli.run_solver":
            rows[solver] = (end - start, sum(
                self_time_metrics(spans, solver).values()))
    return rows
