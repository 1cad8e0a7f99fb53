"""Regularization-parameter selection: discrepancy principle, (weighted) GCV
and the optimal-parameter oracle, all evaluated by ``select_lambda`` from the
filter factors of one standard-form spectral pair, from NumPy's SVD
(``svd_factors``): of R1 R2^{-1} for a projected pair, of R W^{-1} for IRN's
system A W^{-1} = Q R W^{-1}, whose dp and gcv take sigma and U^T b alone
from ``bidiag``. ``svd_pair``, a dense SVD of the full system, is the test
reference."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.optimize
from scipy.linalg import solve_triangular

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
        if not np.all(np.isfinite([self.lam, self.nl, self.tau_lambda])):
            raise ValueError("lambda, noise level and tau_lambda must be "
                             "finite")
        if self.lam < 0.0 or self.nl < 0.0:
            raise ValueError("lambda and noise level must be non-negative")
        if self.kind == "dp" and self.tau_lambda <= 1.0:
            raise ValueError("dp safety factor must exceed 1")
        if self.kind == "dp" and self.nl == 0.0:
            raise ValueError("dp policy needs a positive noise level")
        if self.kind == "optimal" and self.x_true is None:
            raise ValueError("optimal policy needs x_true")


def dp_select(residual_norm, target, scale=1.0):
    """Root of residual_norm(lam) == target for a non-decreasing residual map,
    by Brent's method on log(lam) over [1e-12, 1e12] * scale; on a map that
    jumps across the target, the jump. Returns 0 when even the unregularized
    residual meets or exceeds the target (no root exists)."""
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
    return float(np.exp(troot))


def _log_grid(sigma_max_sq):
    """200 log-spaced points spanning 16 decades anchored at sigma_max^2."""
    anchor = sigma_max_sq if sigma_max_sq > 0 else 1.0
    return np.geomspace(1e-12 * anchor, 1e4 * anchor, GRID_POINTS)


def _grid_argmin(fun, sigma_max_sq):
    """Minimizer of fun over the search grid; an interior minimum is refined
    on a second grid of as many points spanning its two neighbours. fun takes
    a whole grid at once (one value per point). Also returns whether the
    minimum is flat or on the grid's boundary."""
    grid = _log_grid(sigma_max_sq)
    vals = fun(grid)
    idx = int(np.argmin(vals))
    flat = np.all(np.abs(vals - vals[0]) <= 1e-14 * max(1.0, abs(vals[0])))
    boundary = idx in (0, len(grid) - 1)
    if flat or boundary:
        return float(grid[idx]), True
    fine = np.geomspace(grid[idx - 1], grid[idx + 1], GRID_POINTS)
    return float(fine[np.argmin(fun(fine))]), False


def _quotient(num, den):
    """num / den, inf where den is 0 (elementwise for a grid)."""
    return np.divide(num, den, out=np.full(np.shape(den), np.inf),
                     where=den != 0)[()]


def _wgcv_value(lam, c, beta_t, beta_perp, omega):
    """Weighted GCV of the projected problem [R1; 0] y ~ [beta; beta_perp],
    which has k + 1 rows (Chung, Nagy & O'Leary, ETNA 2008): (k + 1) |r|^2 /
    (k + 1 - omega trace(influence))^2, for a scalar lambda or a grid."""
    comp = _filters(lam, c)[0]
    rows = c.size + 1
    num = rows * (np.sum((comp * beta_t) ** 2, axis=-1) + beta_perp**2)
    return _quotient(num, (rows - omega * np.sum(1.0 - comp, axis=-1)) ** 2)


def optimal_select(solution_map, x_true, scale=1.0):
    """Oracle parameter by direct evaluation, one lambda at a time, of
    |solution_map(lam) - x_true|: argmin over the search grid, refined on a
    second grid. ``select_lambda`` evaluates the same error from Gram data."""
    x_true = np.asarray(x_true, dtype=np.float64)

    def error(lam):
        return np.linalg.norm(solution_map(lam) - x_true)

    lam, _flagged = _grid_argmin(np.vectorize(error, otypes=[float]), scale)
    return lam


@dataclass(frozen=True)
class SpectralPair:
    """Filter-factor data of one standard-form Tikhonov family
    min |M t - b|^2 + lam |t|^2: c = sigma(M), beta_t = U^T b for the left
    singular vectors U of M, beta_perp the norm of the rest of b, and coef
    the map from filtered coefficients to the solution y (None where only dp
    and gcv read the pair). Every rule searches a range anchored at smax_sq,
    sigma_max^2 of the data-fit matrix. ``m`` is the row count of a full
    system, whose GCV counts all m rows; None marks a projected pair, whose
    (W)GCV is the projected function.
    """

    c: np.ndarray
    beta_t: np.ndarray
    beta_perp: float
    coef: np.ndarray | None
    smax_sq: float
    m: int | None = None


def svd_factors(M, b):
    """sigma, U^T b and V of the thin SVD M = U diag(sigma) V^T, from
    NumPy's SVD. A non-finite M or b raises LinAlgError: the SVD would
    return NaNs without raising."""
    if not (np.isfinite(M).all() and np.isfinite(b).all()):
        raise np.linalg.LinAlgError("M and b must be finite")
    U, sv, Vt = np.linalg.svd(M, full_matrices=False)
    return sv, U.T @ b, Vt.T


def projected_pair(R1, beta, beta_perp, R2):
    """Pair of min |R1 y - beta|^2 + lam |R2 y|^2 (plus the constant
    beta_perp^2) in standard form (Elden, BIT 1982): t = R2 y gives
    min |M t - beta|^2 + lam |t|^2 with M = R1 R2^{-1}, so the SVD of M
    gives sigma, U^T beta and V, and y = R2^{-1} V filtered. A singular R2,
    or a non-finite R1 or beta (svd_factors refuses the non-finite M or
    beta), raises LinAlgError; the grid stays anchored at |R1|^2."""
    M = solve_triangular(R2, R1.T, trans="T", check_finite=False).T
    sv, beta_t, V = svd_factors(M, beta)
    smax_sq = float(np.linalg.norm(R1, 2) ** 2) if R1.size else 1.0
    return SpectralPair(sv, beta_t, float(beta_perp),
                        solve_triangular(R2, V), smax_sq)


def svd_pair(M, b):
    """Pair of the standard-form problem min |M y - b|^2 + lam |y|^2, through
    a dense SVD of M: c = sigma, and the coefficient map is V."""
    U, sv, Vt = np.linalg.svd(M, full_matrices=False)
    beta_t = U.T @ b
    beta_perp = float(np.linalg.norm(b - U @ beta_t))
    return SpectralPair(sv, beta_t, beta_perp, Vt.T,
                        float(sv[0] ** 2) if sv.size else 1.0, M.shape[0])


def _filters(lam, c):
    """Residual filter 1 - gamma = lam / (c^2 + lam) and solution filter
    c / (c^2 + lam), one row per lambda for a grid. At lam = 0 a null
    direction of M (c = 0) keeps its whole residual and adds nothing to
    the solution."""
    if np.ndim(lam):
        lam = lam[:, None]
    elif lam == 0.0:
        live = c > 0
        return (np.where(live, 0.0, 1.0),
                np.divide(1.0, c, out=np.zeros_like(c), where=live))
    den = c**2 + lam
    return lam / den, c / den


def select_lambda(policy, pair, b_norm, gram=None, sketch_rows=None):
    """The policy's lambda, every rule read from the filter factors of one
    spectral pair, for a scalar lambda or the whole search grid at once: dp
    and (w)gcv in O(k) per lambda, the optimal oracle in O(k^2). The oracle
    needs ``gram`` = (G, g) of the map y -> x = Z y from the coefficients to
    the solution, G = Z^T Z and g = Z^T x_true, and evaluates |x - x_true|^2
    = y^T G y - 2 g^T y + |x_true|^2. ``b_norm`` scales the dp target, and
    ``sketch_rows`` sets the wgcv weight omega = (k+1)/sketch_rows."""
    if policy.kind == "fixed":
        return policy.lam
    # Closures capture only these O(k) arrays, never the pair: brentq keeps
    # the dp residual in a reference cycle that outlives this call.
    c, beta_t, beta_perp = pair.c, pair.beta_t, pair.beta_perp
    if policy.kind == "dp":
        def residual(lam):
            comp = _filters(lam, c)[0]
            return float(np.sqrt(np.sum((comp * beta_t) ** 2) + beta_perp**2))

        target = policy.tau_lambda * policy.nl * b_norm
        return dp_select(residual, target, scale=pair.smax_sq)
    k, m = c.size, pair.m
    if policy.kind == "optimal":
        if gram is None:
            raise ValueError("the optimal oracle needs the Gram data of its "
                             "solution map")
        G, g = gram
        x_true = np.asarray(policy.x_true, dtype=np.float64)
        coef_t, xx = pair.coef.T, float(x_true @ x_true)

        def fun(lam):  # |x - x_true|, clipped at 0 against cancellation
            y = (_filters(lam, c)[1] * beta_t) @ coef_t
            err2 = np.sum((y @ G) * y, axis=-1) - 2.0 * (y @ g) + xx
            return np.sqrt(np.maximum(err2, 0.0))
    elif m is None:
        omega = 1.0 if policy.kind == "gcv" else (k + 1) / sketch_rows
        fun = lambda lam: _wgcv_value(lam, c, beta_t, beta_perp, omega)
    elif policy.kind == "wgcv":
        raise ValueError("wgcv is a projected-problem policy; a full system "
                         "supports fixed, dp, gcv and optimal")
    else:
        def fun(lam):  # (|r|^2 + beta_perp^2) / (m - sum(gamma))^2
            comp = _filters(lam, c)[0]
            tr = np.sum(comp, axis=-1) + (m - k)
            return _quotient(np.sum((comp * beta_t) ** 2, axis=-1)
                             + beta_perp**2, tr**2)
    lam, _flagged = _grid_argmin(fun, pair.smax_sq)
    return lam
