"""Correctness checks on the program's outputs, each computed apart from the
program or resting on a property the method must have, so that a later
change that truly improves a solver still passes.

* every solver: the written solution reproduces the trace's final
  ``rel_error`` against ``x_true``;
* ``regression``: every fixed-lambda solver's l1 objective, recomputed here,
  lies between a certified lower bound on the minimum (the dual value of an
  L-BFGS-B reference solution) and ``GAP_TOL`` above the reference minimum;
* ``regression``, ``tomo``: every discrepancy-principle solver ends with
  ``|Ax - b| = tau_lambda * nl * |b|``;
* ``deblur``: every trace's final ``objective_mm`` matches the objective
  recomputed with an FFT convolution written here, and the MM objective of
  the sketch-to-precondition solver never rises (the paper's Proposition 2);
* ``tomo``: ``A 1`` equals the analytic chord length of each ray through the
  image square.

The problem instance itself (``A``, ``b``, ``x_true``) comes from the
program's generator, which is the input the solvers were given.
"""

from __future__ import annotations

import csv
import math
import os

import numpy as np
import scipy.optimize

from common import BenchError

REL_ERROR_RTOL = 1e-9
# Relative objective gap allowed above the l1 reference minimum. At the
# experiment seeds plain IRN ends 1.5e-3 above it and FISTA 1.3e-4.
GAP_TOL = 1e-2
# The L-BFGS-B reference must itself be this close to its dual bound.
REFERENCE_GAP_TOL = 1e-5
DP_RTOL = 1e-6
OBJECTIVE_RTOL = 1e-10
MONOTONE_SLACK = 1e-12  # relative rounding slack on "never rises"
CHORD_ATOL = 1e-9
DP_FACTOR = 1.01  # the program's default tau_lambda
MONOTONE_SOLVERS = ("s2p-irw-fgmres",)


def read_trace(path):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise ValueError(f"{os.path.basename(path)} has no rows")
    return rows


def read_solution(path, n):
    x = np.fromfile(path, dtype="<f8")
    if x.shape != (n,):
        raise ValueError(f"{os.path.basename(path)} holds {x.size} values, not {n}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{os.path.basename(path)} is not finite")
    return x


def _rel(a, b):
    return abs(a - b) / max(abs(b), np.finfo(float).tiny)


def l1_reference(A, b, lam):
    """Minimum of |Ax - b|^2 + 2 lam |x|_1 by L-BFGS-B on x = u - v with
    u, v >= 0, and a certified lower bound: the dual value 2 u'b - |u|^2 at
    the scaled residual u, feasible when |A'u|_inf <= lam."""
    n = A.shape[1]

    def f(z):
        x = z[:n] - z[n:]
        r = A @ x - b
        g = 2.0 * (A.T @ r)
        return float(r @ r + 2.0 * lam * z.sum()), np.concatenate(
            [g + 2.0 * lam, -g + 2.0 * lam])

    res = scipy.optimize.minimize(
        f, np.zeros(2 * n), jac=True, method="L-BFGS-B",
        bounds=[(0.0, None)] * (2 * n),
        options={"maxiter": 50000, "maxfun": 100000, "ftol": 1e-16,
                 "gtol": 1e-12, "maxcor": 30},
    )
    x = res.x[:n] - res.x[n:]
    primal = l1_objective(A, b, x, lam)
    u = b - A @ x
    u *= min(1.0, lam / float(np.max(np.abs(A.T @ u))))
    dual = float(2.0 * (u @ b) - u @ u)
    if (primal - dual) / primal > REFERENCE_GAP_TOL:
        raise BenchError(f"l1 reference not converged: primal {primal!r}, "
                         f"dual {dual!r}")
    return primal, dual


def l1_objective(A, b, x, lam):
    r = A @ x - b
    return float(r @ r + 2.0 * lam * np.sum(np.abs(x)))


def gaussian_blur_fft(nx, sigma):
    """Periodic blur by the normalized Gaussian truncated at radius
    ceil(4 sigma), applied through the 2-D FFT."""
    radius = max(1, math.ceil(4.0 * sigma))
    ax = np.arange(-radius, radius + 1, dtype=np.float64)
    g = np.exp(-0.5 * (ax / sigma) ** 2)
    k = np.outer(g, g)
    k /= k.sum()
    psf = np.zeros((nx, nx))
    for i, di in enumerate(range(-radius, radius + 1)):
        for j, dj in enumerate(range(-radius, radius + 1)):
            psf[di % nx, dj % nx] += k[i, j]
    transfer = np.fft.rfft2(psf)

    def apply(x):
        img = np.asarray(x, dtype=np.float64).reshape(nx, nx)
        return np.fft.irfft2(np.fft.rfft2(img) * transfer, s=(nx, nx)).ravel()

    return apply


def chord_lengths(nx, n_angles, n_rays):
    """Length of each ray inside the square [-nx/2, nx/2]^2, angle-major,
    for angles 180 k / n_angles (k = 1..n_angles) and offsets equispaced
    over the image diagonal."""
    half = nx / 2.0
    diag = math.sqrt(2.0) * nx
    out = []
    for k in range(1, n_angles + 1):
        th = math.radians(180.0 * k / n_angles)
        d = (math.cos(th), math.sin(th))
        nrm = (-math.sin(th), math.cos(th))
        for off in np.linspace(-diag / 2.0, diag / 2.0, n_rays):
            lo, hi = -math.inf, math.inf
            for axis in range(2):
                p = off * nrm[axis]
                if d[axis] == 0.0:
                    if abs(p) > half:
                        lo, hi = 0.0, 0.0
                    continue
                t1, t2 = (-half - p) / d[axis], (half - p) / d[axis]
                lo, hi = max(lo, min(t1, t2)), min(hi, max(t1, t2))
            out.append(max(0.0, hi - lo))
    return np.array(out)


class Checker:
    """Checks one workload's outputs against references built once."""

    def __init__(self, workload, cfg, inst):
        self.workload = workload
        self.cfg = cfg
        self.inst = inst
        self.problem_failures = []
        self.x_true_norm = float(np.linalg.norm(inst.x_true))
        self.b_norm = float(np.linalg.norm(inst.b))
        self.reference = None
        if workload.name == "regression":
            A = inst.A.matrix
            self.apply = lambda x: A @ x
            lam = float(cfg[f"solver.{workload.fixed_lambda[0]}.lambda"])
            self.reference = (lam,) + l1_reference(A, inst.b, lam)
        elif workload.name == "deblur":
            self.apply = gaussian_blur_fft(int(cfg["problem.nx"]),
                                           float(cfg["problem.sigma_blur"]))
            gap = float(np.linalg.norm(self.apply(inst.x_true) - inst.b_exact)
                        / np.linalg.norm(inst.b_exact))
            if gap > OBJECTIVE_RTOL:
                self.problem_failures.append(
                    f"blurred x_true differs from b_exact by {gap:.3g}")
        else:
            self.apply = inst.A.apply
            nx = int(cfg["problem.nx"])
            ones = inst.A.apply(np.ones(inst.A.ncols))
            chords = chord_lengths(nx, int(cfg["problem.n_angles"]),
                                   math.ceil(math.sqrt(2.0) * nx) + 1)
            if ones.shape != chords.shape:
                self.problem_failures.append(
                    f"A has {ones.size} rays, geometry gives {chords.size}")
            else:
                miss = float(np.max(np.abs(ones - chords)))
                if miss > CHORD_ATOL:
                    self.problem_failures.append(
                        f"A 1 misses the chord lengths by {miss:.3g}")

    def check_solver(self, name, outdir):
        """Failures (strings) of one solver run; empty when it passed."""
        try:
            rows = read_trace(os.path.join(outdir, f"{name}.trace.csv"))
            x = read_solution(os.path.join(outdir, f"{name}.x.f64"),
                              self.inst.x_true.size)
        except (OSError, ValueError) as exc:
            return [f"{name}: unreadable output: {exc}"]
        failures = []
        last = rows[-1]
        rel_error = float(np.linalg.norm(x - self.inst.x_true)) / self.x_true_norm
        if _rel(rel_error, float(last["rel_error"])) > REL_ERROR_RTOL:
            failures.append(f"{name}: x gives rel_error {rel_error!r}, trace "
                            f"says {last['rel_error']}")
        if name in self.workload.fixed_lambda:
            lam, ref_min, ref_low = self.reference
            obj = l1_objective(self.inst.A.matrix, self.inst.b, x, lam)
            if obj < ref_low or (obj - ref_min) / ref_min > GAP_TOL:
                failures.append(f"{name}: l1 objective {obj!r} outside "
                                f"[{ref_low!r}, {ref_min!r} (1 + {GAP_TOL})]")
        if name in self.workload.dp:
            nl = float(self.cfg[f"solver.{name}.nl"])
            tau = float(self.cfg.get(f"solver.{name}.tau_lambda", DP_FACTOR))
            ratio = float(np.linalg.norm(self.apply(x) - self.inst.b)) / (
                tau * nl * self.b_norm)
            if abs(ratio - 1.0) > DP_RTOL:
                failures.append(f"{name}: residual / discrepancy target = {ratio!r}")
        if self.workload.name == "deblur":
            failures += self._check_mm_objective(name, rows, x)
        return failures

    def _check_mm_objective(self, name, rows, x):
        failures = []
        sec = f"solver.{name}."
        p = float(self.cfg.get(sec + "p", 1.0))
        tau = float(self.cfg.get(sec + "tau", 1e-10))
        lam = float(rows[-1]["lambda"])
        r = self.apply(x) - self.inst.b
        obj = float(r @ r) + (2.0 * lam / p) * float(np.sum(np.hypot(x, tau) ** p))
        if _rel(float(rows[-1]["objective_mm"]), obj) > OBJECTIVE_RTOL:
            failures.append(f"{name}: trace objective_mm {rows[-1]['objective_mm']} "
                            f"but recomputed {obj!r}")
        if name in MONOTONE_SOLVERS:
            objs = [float(row["objective_mm"]) for row in rows]
            rises = [k for k in range(1, len(objs))
                     if objs[k] > objs[k - 1] * (1.0 + MONOTONE_SLACK)]
            if rises:
                failures.append(f"{name}: MM objective rises at outer "
                                f"iterations {rises}")
        return failures
