"""Flexible Arnoldi / Golub-Kahan factorizations with optional truncated
orthogonalization, plus baseline GMRES and LSQR solvers.

The factorization maintains A Z_k = U_{k+1} H_{k+1,k} exactly (in
exact arithmetic) regardless of the truncation window, because H records the
coefficients actually used in the orthogonalization. Orthogonalization is
modified Gram-Schmidt with one reorthogonalization pass over the retained
window.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

BREAKDOWN_RTOL = 1e-14


def _finite_rhs(b):
    """b as float64; NaN or inf entries are refused."""
    b = np.asarray(b, dtype=np.float64)
    if not np.all(np.isfinite(b)):
        raise ValueError("right-hand side has non-finite entries")
    return b


def _orthogonalize(q, basis, window):
    """MGS + one reorthogonalization pass of q against the last ``window``
    columns of ``basis`` (a list of vectors). Returns (q, coeffs) where coeffs
    has one entry per basis vector (zeros outside the window)."""
    n_basis = len(basis)
    lo = 0 if window is None else max(0, n_basis - window)
    coeffs = np.zeros(n_basis)
    for _ in range(2):
        for i in range(lo, n_basis):
            h = basis[i] @ q
            coeffs[i] += h
            q = q - h * basis[i]
    return q, coeffs


@dataclass
class FlexibleFactorization:
    """Growing state of an ell-truncated flexible Arnoldi or Golub-Kahan
    factorization of (A, b) with per-step diagonal preconditioners: the
    bases U, V and Z and the coefficients H. The raw columns A z_j are
    returned by ``expand`` and not kept; a caller that needs them keeps its
    own (e.g. a QR of them)."""

    kind: str  # "arnoldi" | "golub_kahan"
    A: object
    b: np.ndarray
    ell: int | None = None  # None means full orthogonalization
    k: int = 0
    beta1: float = 0.0
    breakdown: bool = False
    _U: list = field(default_factory=list)
    _V: list = field(default_factory=list)
    _Z: list = field(default_factory=list)
    _Hcols: list = field(default_factory=list)

    def __post_init__(self):
        if self.kind not in ("arnoldi", "golub_kahan"):
            raise ValueError(f"unknown factorization kind {self.kind!r}")
        b = _finite_rhs(self.b)
        self.beta1 = float(np.linalg.norm(b))
        if self.beta1 == 0.0:
            raise ValueError("cannot build a Krylov space from a zero vector")
        self._U.append(b / self.beta1)
        self.b = b

    # --- assembled views -------------------------------------------------
    @property
    def U(self):
        return np.stack(self._U, axis=1)

    @property
    def V(self):
        if self.kind != "golub_kahan":
            return self.U
        return np.stack(self._V, axis=1) if self._V else np.empty((self.b.size, 0))

    @property
    def Z(self):
        if not self._Z:
            return np.empty((self.A.ncols, 0))
        return np.stack(self._Z, axis=1)

    @property
    def H(self):
        k = self.k
        H = np.zeros((k + 1, k))
        for j, col in enumerate(self._Hcols):
            H[: len(col), j] = col
        return H

    def expand(self, w_inv):
        """One step k -> k+1 with preconditioner diag(w_inv). Returns the new
        raw column A z_{k+1}. No-op after breakdown."""
        if self.breakdown:
            raise RuntimeError("factorization already broke down")
        w_inv = np.asarray(w_inv, dtype=np.float64)
        if np.any(w_inv <= 0):
            raise ValueError("preconditioner entries must be positive")
        window = self.ell

        if self.kind == "arnoldi":
            v = self._U[-1]
        else:
            vhat = self.A.apply_adjoint(self._U[-1])
            vhat, _ = _orthogonalize(vhat, self._V, window)
            nv = np.linalg.norm(vhat)
            if nv <= BREAKDOWN_RTOL * self.beta1:
                self.breakdown = True
                return None
            v = vhat / nv
            self._V.append(v)

        z = w_inv * v
        q_raw = self.A.apply(z)
        q, coeffs = _orthogonalize(q_raw, self._U, window)
        hnew = np.linalg.norm(q)
        col = np.append(coeffs, hnew)
        self._Z.append(z)
        self._Hcols.append(col)
        self.k += 1
        if hnew <= BREAKDOWN_RTOL * self.beta1:
            self.breakdown = True
            self._U.append(np.zeros_like(q))
        else:
            self._U.append(q / hnew)
        return q_raw


@dataclass
class IterativeResult:
    x: np.ndarray
    residuals: np.ndarray
    n_iter: int
    stagnated: bool = False
    converged: bool = False


def lsqr_solve(op, b, lam=0.0, right_precond=None, tol=1e-10, maxit=None,
               callback=None):
    """LSQR on min |[op; sqrt(lam) I] x - [b; 0]| with an optional right
    preconditioner given as a pair (solve, solve_adjoint) applying R^{-1} and
    R^{-T}.

    Stops when the relative normal-equations residual drops below ``tol`` or
    after ``maxit`` iterations; flags stagnation when 10 iterations pass
    without progress. Residual history is for the augmented system.
    """
    if lam < 0.0:
        raise ValueError("lambda must be non-negative")
    m, n = op.nrows, op.ncols
    b = _finite_rhs(b)
    if b.shape[0] != m:
        raise ValueError(f"rhs length {b.shape[0]} does not match {m} rows")
    if maxit is None:
        maxit = 2 * n
    sqlam = np.sqrt(lam)

    if right_precond is None:
        prec = prec_t = lambda v: v
    else:
        prec, prec_t = right_precond

    def matvec(x):
        y = prec(x)
        top = op.apply(y)
        if lam == 0.0:
            return np.concatenate([top, np.zeros(0)])
        return np.concatenate([top, sqlam * y])

    def rmatvec(r):
        top = r[:m]
        out = op.apply_adjoint(top)
        if lam > 0.0:
            out = out + sqlam * r[m:]
        return prec_t(out)

    bb = np.concatenate([b, np.zeros(n if lam > 0.0 else 0)])

    # Paige-Saunders recurrences.
    beta = np.linalg.norm(bb)
    u = bb / beta
    v = rmatvec(u)
    alpha = np.linalg.norm(v)
    grad0 = alpha * beta  # |A^T b|
    if alpha == 0.0:
        return IterativeResult(np.zeros(n), np.array([beta]), 0, converged=True)
    v /= alpha
    w = v.copy()
    xhat = np.zeros(n)
    phibar, rhobar = beta, alpha
    residuals = [beta]
    best = (beta, xhat.copy(), 0)
    stagnated = converged = False
    it = 0
    for it in range(1, maxit + 1):
        u = matvec(v) - alpha * u
        beta = np.linalg.norm(u)
        if beta > 0.0:
            u /= beta
            v = rmatvec(u) - beta * v
            alpha = np.linalg.norm(v)
            if alpha > 0.0:
                v /= alpha
        rho = np.hypot(rhobar, beta)
        c, s = rhobar / rho, beta / rho
        theta = s * alpha
        rhobar = -c * alpha
        phi = c * phibar
        phibar = s * phibar
        xhat += (phi / rho) * w
        w = v - (theta / rho) * w
        residuals.append(phibar)
        if callback is not None:
            callback(prec(xhat))
        if phibar < best[0] - 1e-14 * residuals[0]:
            best = (phibar, xhat.copy(), it)
        elif it - best[2] >= 10:
            stagnated = True
            xhat = best[1]
            break
        # |A^T r| = phibar * alpha * |c|; relative to |A^T b|
        if abs(phibar * alpha * c) <= tol * grad0:
            converged = True
            break
        if alpha == 0.0 or beta == 0.0:
            converged = True
            break
    x = prec(xhat)
    return IterativeResult(x, np.asarray(residuals), it, stagnated, converged)


def gmres_solve(op, b, tol=1e-10, maxit=None, callback=None):
    """Plain (unrestarted) GMRES for a square operator, on a fully
    orthogonalized Arnoldi factorization with unit weights."""
    if op.nrows != op.ncols:
        raise ValueError("GMRES needs a square operator")
    b = _finite_rhs(b)
    n = op.ncols
    if maxit is None:
        maxit = n
    beta = np.linalg.norm(b)
    if beta == 0.0:
        return IterativeResult(np.zeros(n), np.array([0.0]), 0, converged=True)
    fact = FlexibleFactorization("arnoldi", op, b)
    ones = np.ones(n)
    residuals = [beta]
    x = np.zeros(n)
    for k in range(1, maxit + 1):
        fact.expand(ones)
        H = fact.H
        e1 = np.zeros(k + 1)
        e1[0] = beta
        y = np.linalg.lstsq(H, e1, rcond=None)[0]
        rnorm = np.linalg.norm(H @ y - e1)
        residuals.append(rnorm)
        x = fact.Z @ y
        if callback is not None:
            callback(x)
        # converged, or happy breakdown: exact solution in the current space
        if rnorm <= tol * beta or fact.breakdown:
            return IterativeResult(x, np.asarray(residuals), k, converged=True)
    return IterativeResult(x, np.asarray(residuals), maxit)
