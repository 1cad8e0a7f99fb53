"""Regularization-parameter selection: discrepancy principle, (weighted) GCV
and the optimal-parameter oracle, all evaluated by ``select_lambda`` from one
standard-form pair: the filter factors of NumPy's SVD (``svd_factors``) of
R1 R2^{-1} for a projected pair and of R W^{-1} for IRN's oracle on A W^{-1}
= Q R W^{-1}, and for IRN's dp and gcv, with no SVD, the tridiagonal form of
the Gram R W^{-2} R^T (``TridiagonalPair``). ``svd_pair``, a dense SVD of
the full system, is the test reference."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import (dormqr, dptsv, dstebz, dsterf, dsytrd,
                                 dsytrd_lwork)

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
    troot = _brentq(f, tlo, thi, xtol=1e-14, rtol=8.9e-16, maxiter=200)
    return float(np.exp(troot))


@np.errstate(all="ignore")
def _brentq(f, xpre, xcur, xtol, rtol, maxiter):
    """Root of f between xpre and xcur, where f changes sign: SciPy's C
    ``brentq`` (Brent, 1973) step for step, in float64 with C's IEEE
    semantics (a zero divisor fails the step test), so the root is SciPy's
    to the bit. No sign change or a NaN value raises ValueError, and no
    convergence in ``maxiter`` steps RuntimeError."""
    fpre, fcur = np.float64(f(xpre)), np.float64(f(xcur))
    if fpre == 0 or fcur == 0:
        return xpre if fpre == 0 else xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f must change sign between the two points")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if np.isnan(fpre) or np.isnan(fcur):
            raise ValueError(f"f is NaN at {xpre} or {xcur}")
        if (fpre < 0) != (fcur < 0):  # the root lies between them
            xblk, fblk, spre, scur = xpre, fpre, xcur - xpre, xcur - xpre
        if abs(fblk) < abs(fcur):  # keep the best point in xcur
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        stry = np.inf  # bisects unless a short step passes the test
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
        good = 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta)
        spre, scur = (scur, stry) if good else (sbis, sbis)
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = np.float64(f(xcur))
    raise RuntimeError(f"no convergence in {maxiter} steps, at {xcur}")


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
    the map from filtered coefficients to the solution y. Every rule
    searches a range anchored at smax_sq, sigma_max^2 of the data-fit
    matrix. ``m`` is the row count of a full system, whose GCV counts all m
    rows; None marks a projected pair, whose (W)GCV is the projected
    function.
    """

    c: np.ndarray
    beta_t: np.ndarray
    beta_perp: float
    coef: np.ndarray
    smax_sq: float
    m: int | None = None

    def fit(self, lam):
        """|b - M t|^2 + beta_perp^2 at the Tikhonov solution t (one value
        per lambda of a grid), from the filter factors."""
        comp = _filters(lam, self.c)[0]
        return np.sum((comp * self.beta_t) ** 2, axis=-1) + self.beta_perp**2


@dataclass(frozen=True)
class TridiagonalPair:
    """dp and GCV data of a full system min |M t - b|^2 + lam |t|^2 (plus
    beta_perp^2; ``m`` rows in all) with no SVD of the k-row M: its left Gram
    G = M M^T = Q T Q^T, T tridiagonal (diagonal d, off-diagonal e), and
    qtb = Q^T b. smax_sq is T's largest eigenvalue; c, which only the GCV
    trace reads, holds the roots of all of them, clipped at 0: sigma(M)."""

    d: np.ndarray
    e: np.ndarray
    qtb: np.ndarray
    beta_perp: float
    smax_sq: float
    m: int

    @cached_property
    def c(self):
        eig = _lapack(dsterf, self.d, self.e)[0]
        return np.sqrt(np.maximum(eig[::-1], 0.0))  # descending, as an SVD's

    def fit(self, lam):
        """|b - M t|^2 + beta_perp^2, with |b - M t| = |lam (T + lam I)^{-1}
        Q^T b| from one O(k) solve per lambda; beta_perp^2 at lam = 0, where
        G's rounding hides M's null directions."""
        if np.ndim(lam):
            return np.array([self.fit(t) for t in lam])
        if lam == 0.0:
            return self.beta_perp**2
        r = lam * _lapack(dptsv, self.d + lam, self.e, self.qtb)[2]
        return float(r @ r) + self.beta_perp**2


def _lapack(routine, *args, **kwargs):
    """The outputs of a LAPACK wrapper but its info, which must be 0."""
    *out, info = routine(*args, **kwargs)
    if info:
        raise np.linalg.LinAlgError(f"{routine.__name__}: info = {info}")
    return out


def tridiagonal_pair(G, b, beta_perp, m):
    """``TridiagonalPair`` of the Gram G = M M^T, which it overwrites: T by
    blocked dsytrd, which reads only G's upper triangle, Q^T b by dormqr on
    the reflectors that dsytrd leaves in G's buffer, T's largest eigenvalue
    by dstebz. A non-finite G or b raises LinAlgError first."""
    if not (np.isfinite(G).all() and np.isfinite(b).all()):
        raise np.linalg.LinAlgError("the Gram matrix and b must be finite")
    k, qtb = G.shape[0], np.array(b, dtype=np.float64)
    if k > 1:  # G.T's lower triangle is G's upper in Fortran order
        a, d, e, tau = _lapack(dsytrd, G.T, lower=1, overwrite_a=1,
                               lwork=int(dsytrd_lwork(k, lower=1)[0]))
        # Q = diag(1, Q1), and Q1's reflectors sit below the subdiagonal as
        # a QR factor's do: a[1:, :-1], read with no copy as a Fortran view
        # one row into a's buffer, of leading dimension k (its last row,
        # past Q1's k - 1, is never read)
        refl = np.ndarray((k, k - 1), np.float64, a, 8, (8, 8 * k), "F")
        qtb[1:] = _lapack(dormqr, "L", "T", refl, tau, qtb[1:, None],
                          lwork=k)[0][:, 0]
    else:  # no reflector; f2py wants a non-empty off-diagonal
        d, e = G[0].copy(), np.zeros(1)
    top = _lapack(dstebz, d, e, 2, 0.0, 0.0, k, k, 0.0, "E")[1]
    return TridiagonalPair(d, e, qtb, float(beta_perp),
                           max(float(top[0]), 0.0), m)


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
    """The policy's lambda from one pair, for a scalar lambda or the whole
    grid at once: dp and (w)gcv from the pair's ``fit`` and c in O(k) per
    lambda, the oracle from a ``SpectralPair`` in O(k^2). The oracle needs
    ``gram`` = (G, g) of the map y -> x = Z y, G = Z^T Z (a vector if
    diagonal) and g = Z^T x_true, and evaluates |x - x_true|^2 = y^T G y -
    2 g^T y + |x_true|^2. ``b_norm`` scales the dp target, and
    ``sketch_rows`` sets the wgcv weight omega = (k+1)/sketch_rows."""
    if policy.kind == "fixed":
        return policy.lam
    fit = pair.fit
    if policy.kind == "dp":
        residual = lambda lam: float(np.sqrt(fit(lam)))
        target = policy.tau_lambda * policy.nl * b_norm
        return dp_select(residual, target, scale=pair.smax_sq)
    c, m = pair.c, pair.m
    if policy.kind == "optimal":
        if gram is None:
            raise ValueError("the optimal oracle needs the Gram data of its "
                             "solution map")
        G, g = gram
        x_true = np.asarray(policy.x_true, dtype=np.float64)
        beta_t, coef_t, xx = pair.beta_t, pair.coef.T, float(x_true @ x_true)

        def fun(lam):  # |x - x_true|, clipped at 0 against cancellation
            y = (_filters(lam, c)[1] * beta_t) @ coef_t
            Gy = y * G if G.ndim == 1 else y @ G  # a diagonal G as a vector
            err2 = np.sum(Gy * y, axis=-1) - 2.0 * (y @ g) + xx
            return np.sqrt(np.maximum(err2, 0.0))
    elif m is None:
        omega = 1.0 if policy.kind == "gcv" else (c.size + 1) / sketch_rows
        fun = lambda lam: _wgcv_value(lam, c, pair.beta_t, pair.beta_perp,
                                      omega)
    elif policy.kind == "wgcv":
        raise ValueError("wgcv is a projected-problem policy; a full system "
                         "supports fixed, dp, gcv and optimal")
    else:
        def fun(lam):  # (|r|^2 + beta_perp^2) / (m - sum(gamma))^2
            tr = np.sum(_filters(lam, c)[0], axis=-1) + (m - c.size)
            return _quotient(fit(lam), tr**2)
    return _grid_argmin(fun, pair.smax_sq)[0]
