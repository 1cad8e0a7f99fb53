"""Baselines, each with one trace row per iteration: proximal gradient
(FISTA) for the l1-regularized min |Ax-b|^2 + 2*lam*|x|_1, and plain LSQR
(Tikhonov lam) or GMRES (square A), whose rows each apply A once more."""

from __future__ import annotations

import numpy as np

from .irn import _TraceRecorder
from .krylov import _finite_rhs, gmres_solve, lsqr_solve
from .weights import WeightSpec


def fista_solve(A, b, lam, n_iter=200, weight=None, x_true=None):
    """FISTA with fixed step 1/|A|_2^2. Each iteration applies A and A^T
    once: A v is combined from A x_k and A x_{k-1}."""
    b = _finite_rhs(b)
    L = A.norm_estimate() ** 2
    if L == 0.0:
        raise ValueError("zero operator")
    step = 1.0 / (2.0 * L)
    thresh = 2.0 * lam * step

    x = np.zeros(A.ncols)
    Ax = np.zeros(A.nrows)  # A x, carried so each iteration applies A once
    v, Av = x, Ax
    t = 1.0
    rec = _TraceRecorder(A, b, weight or WeightSpec(), x_true)
    for _ in range(n_iter):
        grad = 2.0 * A.apply_adjoint(Av - b)
        u = v - step * grad
        x_new = np.sign(u) * np.maximum(np.abs(u) - thresh, 0.0)
        Ax_new = A.apply(x_new)
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        beta = (t - 1.0) / t_new
        v = x_new + beta * (x_new - x)
        Av = Ax_new + beta * (Ax_new - Ax)  # A v from two exact applies
        x, Ax, t = x_new, Ax_new, t_new
        rec.row(x, lam, Ax=Ax)
    return rec.result()


def krylov_baseline_solve(A, b, method, lam=0.0, tol=1e-12, maxit=50,
                          weight=None, x_true=None):
    """``method`` "lsqr" or "gmres" (lam = 0 only) from x = 0; for b = 0 the
    trace is the one row of x = 0."""
    if method not in ("lsqr", "gmres") or (method == "gmres" and lam != 0.0):
        raise ValueError(f"no {method!r} baseline with lambda = {lam}")
    rec = _TraceRecorder(A, b, weight or WeightSpec(), x_true)
    record = lambda x: rec.row(x, lam)
    if method == "lsqr":
        out = lsqr_solve(A, b, lam=lam, tol=tol, maxit=maxit, callback=record)
    else:
        out = gmres_solve(A, b, tol=tol, maxit=maxit, callback=record)
    if not rec.trace:
        record(out.x)
    return rec.result()
