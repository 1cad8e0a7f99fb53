"""Baselines, each with one trace row per iteration: proximal gradient
(FISTA) for the l1-regularized min |Ax-b|^2 + 2*lam*|x|_1, whose rows read
the A x its step computes, and plain LSQR (Tikhonov lam) or GMRES (square
A), whose rows read the A x their solver carries; those two apply A once
more per run, at the last row."""

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
    trace is the one row of x = 0. Each row is recorded at the next callback,
    from the A x the solver carried, and the last from the returned x with
    one apply of A, so every final objective is exact."""
    if method not in ("lsqr", "gmres") or (method == "gmres" and lam != 0.0):
        raise ValueError(f"no {method!r} baseline with lambda = {lam}")
    rec = _TraceRecorder(A, b, weight or WeightSpec(), x_true)
    held = []  # the latest iterate and its A x, recorded one callback late

    def record(x, Ax):
        if held:
            rec.row(held[0], lam, Ax=held[1])
        held[:] = x.copy(), Ax  # LSQR may update its x in place

    if method == "lsqr":
        out = lsqr_solve(A, b, lam=lam, tol=tol, maxit=maxit, callback=record)
    else:
        out = gmres_solve(A, b, tol=tol, maxit=maxit, callback=record)
    rec.row(out.x, lam)  # the last callback's x, or x = 0 when there was none
    return rec.result()
