"""Regularization-parameter selection: discrepancy principle, (weighted) GCV
on projected problems through a small GSVD, full-problem GCV for dense desk
cases, and the optimal-parameter oracle."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.optimize

GRID_POINTS = 200


@dataclass(frozen=True)
class LambdaPolicy:
    """Regularization-parameter policy shared by the outer solvers.

    kind: "fixed" | "dp" | "gcv" | "wgcv" | "optimal". The dp rule needs the
    noise level ``nl`` and a safety factor tau_lambda > 1; the optimal oracle
    needs ``x_true``. Individual solvers reject kinds they do not support.
    """

    kind: str = "fixed"
    lam: float = 1.0
    nl: float = 0.0
    tau_lambda: float = 1.01
    x_true: object = None

    def __post_init__(self):
        if self.kind not in ("fixed", "dp", "gcv", "wgcv", "optimal"):
            raise ValueError(f"unknown lambda policy {self.kind!r}")
        if self.lam < 0.0 or self.nl < 0.0:
            raise ValueError("lambda and noise level must be non-negative")
        if self.kind == "dp" and self.tau_lambda <= 1.0:
            raise ValueError("dp safety factor must exceed 1")
        if self.kind == "dp" and self.nl == 0.0:
            raise ValueError("dp policy needs a positive noise level")
        if self.kind == "optimal" and self.x_true is None:
            raise ValueError("optimal policy needs x_true")


def dp_select(residual_norm, target, scale=1.0, rtol=1e-6):
    """Root of residual_norm(lam) == target for a non-decreasing residual map.

    Returns 0 when even the unregularized residual already meets or exceeds
    the target (no root exists). Root-finding is bisection on log(lam) over
    [1e-12, 1e12] * scale, refined by Brent to ``rtol`` relative accuracy in
    the residual.
    """
    if target <= 0.0:
        raise ValueError("discrepancy target must be positive")
    if residual_norm(0.0) >= target:
        return 0.0
    lo, hi = 1e-12 * scale, 1e12 * scale
    f = lambda t: residual_norm(np.exp(t)) - target
    tlo, thi = np.log(lo), np.log(hi)
    if f(thi) < 0.0:
        return hi  # residual never reaches the target; saturate
    if f(tlo) > 0.0:
        return lo
    troot = scipy.optimize.brentq(f, tlo, thi, xtol=1e-14, rtol=8.9e-16, maxiter=200)
    lam = float(np.exp(troot))
    if abs(residual_norm(lam) - target) > rtol * target:
        # fall back to plain bisection when the map is barely resolvable
        for _ in range(100):
            mid = 0.5 * (tlo + thi)
            if f(mid) < 0.0:
                tlo = mid
            else:
                thi = mid
        lam = float(np.exp(0.5 * (tlo + thi)))
    return lam


def _log_grid(sigma_max_sq):
    """200 log-spaced points spanning 16 decades anchored at sigma_max^2."""
    anchor = sigma_max_sq if sigma_max_sq > 0 else 1.0
    return np.geomspace(1e-12 * anchor, 1e4 * anchor, GRID_POINTS)


def _golden_refine(fun, grid, idx, rel=1e-3):
    """Golden-section refinement around grid index ``idx``; stops when the
    bracket width falls below ``rel`` relative (in log space)."""
    lo = grid[max(idx - 1, 0)]
    hi = grid[min(idx + 1, len(grid) - 1)]
    if lo == hi:
        return grid[idx]
    a, b = np.log(lo), np.log(hi)
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fun(np.exp(c)), fun(np.exp(d))
    while (b - a) > rel:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fun(np.exp(c))
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fun(np.exp(d))
    return float(np.exp(0.5 * (a + b)))


def _grid_argmin(fun, sigma_max_sq):
    grid = _log_grid(sigma_max_sq)
    vals = np.array([fun(g) for g in grid])
    idx = int(np.argmin(vals))
    flat = np.all(np.abs(vals - vals[0]) <= 1e-14 * max(1.0, abs(vals[0])))
    boundary = idx in (0, len(grid) - 1)
    if flat or boundary:
        return float(grid[idx]), True
    return _golden_refine(fun, grid, idx), False


def gsvd_small(R1, R2):
    """Generalized SVD of a small pair: R1 = U C X^T, R2 = V S X^T with
    C^2 + S^2 = I, computed via the CS decomposition of the QR factorization
    of the stacked pair."""
    R1 = np.asarray(R1, dtype=np.float64)
    R2 = np.asarray(R2, dtype=np.float64)
    k = R1.shape[1]
    if R1.shape[1] != R2.shape[1]:
        raise ValueError("R1 and R2 must have the same number of columns")
    stacked = np.vstack([R1, R2])
    Q, T = np.linalg.qr(stacked)
    if np.linalg.matrix_rank(T) < k:
        raise np.linalg.LinAlgError("stacked pair [R1; R2] is rank deficient")
    Q1 = Q[: R1.shape[0]]
    Q2 = Q[R1.shape[0]:]
    U, c, Wt = np.linalg.svd(Q1)
    c = np.clip(c[:k], 0.0, 1.0)
    U = U[:, :k]
    B = Q2 @ Wt.T[:, :k]
    s = np.linalg.norm(B, axis=0)
    V = np.zeros_like(B)
    for i in range(k):
        if s[i] > 1e-14:
            V[:, i] = B[:, i] / s[i]
    Xt = Wt[:k] @ T
    return U, V, Xt, c, s


def _projected_gcv_terms(pp):
    """Per-direction filter ingredients for the projected (W)GCV function."""
    U, _, _, c, s = gsvd_small(pp.R1, pp.R2)
    beta_t = U.T @ pp.beta
    return c, s, beta_t


def _wgcv_value(lam, c, s, beta_t, k, omega):
    gamma = np.where(s > 0, c**2 / (c**2 + lam * s**2), 1.0)
    num = k * float(np.sum(((1.0 - gamma) * beta_t) ** 2))
    den = (k - omega * float(np.sum(gamma))) ** 2
    if den == 0.0:
        return np.inf
    return num / den


def wgcv_select(pp, s_rows, k=None, omega=None):
    """Argmin of the weighted projected GCV function, omega = (k+1)/s."""
    if k is None:
        k = pp.k
    if omega is None:
        omega = (k + 1) / s_rows
    c, svals, beta_t = _projected_gcv_terms(pp)
    sigma_max_sq = float(np.max(np.linalg.svd(pp.R1, compute_uv=False)) ** 2) \
        if pp.R1.size else 1.0
    fun = lambda lam: _wgcv_value(lam, c, svals, beta_t, k, omega)
    lam, _flagged = _grid_argmin(fun, sigma_max_sq)
    return lam


def gcv_full_select(A_k, b):
    """Argmin of the dense GCV function via an SVD of A_k (desk scale)."""
    A_k = np.asarray(A_k, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    U, sv, _ = np.linalg.svd(A_k, full_matrices=False)
    beta = U.T @ b
    perp2 = max(float(b @ b - beta @ beta), 0.0)
    m = A_k.shape[0]

    def gfun(lam):
        filt = lam / (sv**2 + lam)
        res2 = float(np.sum((filt * beta) ** 2)) + perp2
        tr = float(np.sum(filt)) + (m - sv.size)
        if tr == 0.0:
            return np.inf
        return res2 / tr**2

    lam, _flagged = _grid_argmin(gfun, float(sv[0] ** 2) if sv.size else 1.0)
    return lam


def optimal_select(solution_map, x_true, scale=1.0):
    """Oracle parameter: argmin over the search grid (plus golden refinement)
    of the error against the known true solution."""
    x_true = np.asarray(x_true, dtype=np.float64)
    fun = lambda lam: float(np.linalg.norm(solution_map(lam) - x_true))
    lam, _flagged = _grid_argmin(fun, scale)
    return lam
