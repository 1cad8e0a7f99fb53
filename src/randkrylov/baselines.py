"""Baselines, each with one trace row per iteration: proximal gradient
(FISTA) for the l1-regularized min |Ax-b|^2 + 2*lam*|x|_1, and plain LSQR
(Tikhonov lam) or GMRES (square A). Each row reads the data fit or the A x
that its iteration already forms."""

from __future__ import annotations

import numpy as np

from .irn import _TraceRecorder
from .krylov import _check_count, _finite_rhs, gmres_solve, lsqr_solve
from .weights import WeightSpec


def fista_solve(A, b, lam, n_iter=200, weight=None, x_true=None,
                reduced=None):
    """FISTA with fixed step 1/|A|_2^2. Each iteration applies the operator
    and its adjoint once: A v is combined from A x_k and A x_{k-1}.
    ``reduced``, ``irn._reduce_system`` of a dense A and this b, puts R and
    Q^T b in place of A and b, with the same gradient R^T (R v - Q^T b) and
    norm |R| = |A|: rows read |R x - Q^T b|^2 + beta_perp^2."""
    _check_count(n_iter, "the iteration count n_iter")
    if not lam >= 0.0:
        raise ValueError("lambda must be non-negative")
    b = _finite_rhs(b)
    # the iteration's operator and right-hand side: A and b, or R and Q^T b
    op, rhs, beta_perp = ((A, b, 0.0) if reduced is None else
                          (reduced.op, reduced.qtb, reduced.beta_perp))
    L = op.norm_estimate() ** 2
    if L == 0.0:
        raise ValueError("zero operator")
    step = 1.0 / (2.0 * L)
    thresh = 2.0 * lam * step

    x = np.zeros(op.ncols)
    Ax = np.zeros(op.nrows)  # op x, carried so each iteration applies op once
    v, Av = x, Ax
    t = 1.0
    rec = _TraceRecorder(A, b, weight or WeightSpec(), x_true)
    for _ in range(n_iter):
        grad = 2.0 * op.apply_adjoint(Av - rhs)
        u = v - step * grad
        x_new = np.sign(u) * np.maximum(np.abs(u) - thresh, 0.0)
        Ax_new = op.apply(x_new)
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        beta = (t - 1.0) / t_new
        v = x_new + beta * (x_new - x)
        Av = Ax_new + beta * (Ax_new - Ax)  # op v from two exact applies
        x, Ax, t = x_new, Ax_new, t_new
        r = Ax - rhs
        fit = float(r @ r) + beta_perp**2  # |A x - b|^2
        rec.row(x, lam, fit)
    # on A itself the last fit came from an apply of A
    return rec.result(fit if reduced is None else None)


def krylov_baseline_solve(A, b, method, lam=0.0, tol=1e-12, maxit=50,
                          weight=None, x_true=None):
    """``method`` "lsqr" or "gmres" (lam = 0 only) from x = 0; for b = 0 the
    trace is the one row of x = 0. Each row is recorded at its callback,
    from the A x the solver carried."""
    if method not in ("lsqr", "gmres") or (method == "gmres" and lam != 0.0):
        raise ValueError(f"no {method!r} baseline with lambda = {lam}")
    rec = _TraceRecorder(A, b, weight or WeightSpec(), x_true)

    def record(x, Ax):
        r = Ax - b
        rec.row(x, lam, float(r @ r))

    if method == "lsqr":
        out = lsqr_solve(A, b, lam=lam, tol=tol, maxit=maxit, callback=record)
    else:
        out = gmres_solve(A, b, tol=tol, maxit=maxit, callback=record)
    if not rec.trace:  # no callback: the solver returned x = 0 at once
        record(out.x, out.Ax)
    return rec.result()
