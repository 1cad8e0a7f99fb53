"""Plain proximal-gradient (FISTA) baseline for the l1-regularized problem
min |Ax-b|^2 + 2*lam*|x|_1, with fixed step 1/|A|_2^2. Each iteration
applies A and A^T once: A v is combined from A x_k and A x_{k-1}."""

from __future__ import annotations

import numpy as np

from .irn import _TraceRecorder
from .krylov import _finite_rhs
from .weights import WeightSpec


def fista_solve(A, b, lam, n_iter=200, weight=None, x_true=None):
    b = _finite_rhs(b)
    if weight is None:
        weight = WeightSpec(p=1.0, tau=1e-10)
    L = A.norm_estimate() ** 2
    if L == 0.0:
        raise ValueError("zero operator")
    step = 1.0 / (2.0 * L)
    thresh = 2.0 * lam * step

    x = np.zeros(A.ncols)
    Ax = np.zeros(A.nrows)  # A x, carried so each iteration applies A once
    v, Av = x, Ax
    t = 1.0
    rec = _TraceRecorder(A, b, weight, x_true)
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
