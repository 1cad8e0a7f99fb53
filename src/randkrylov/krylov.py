"""Flexible Arnoldi / Golub-Kahan factorizations with optional truncated
orthogonalization, plus baseline GMRES and LSQR solvers.

Both orthonormal bases here, the factorization's U and V, grow through one
kernel, ``RowBasis.append``: classical Gram-Schmidt with one
reorthogonalization pass over the retained window (CGS2), two
matrix-vector products per pass. Every basis is one buffer of rows,
allocated once for the k_max steps the factorization may take, so U, Z
and the coefficient matrix H are read as views, not copies. Only the
window reads Golub-Kahan's V, so an ell-truncated factorization keeps just
its last ell + 1 vectors, in a buffer of that many rows; V is the
ell-window, and is kept in full only without truncation.

The factorization maintains A Z_k = U_{k+1} H_{k+1,k} exactly (in
exact arithmetic) regardless of the truncation window, because H records the
coefficients actually used in the orthogonalization.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np
import scipy.linalg

BREAKDOWN_RTOL = 1e-14
# A factorization step breaks down when CGS2 leaves at most this fraction of
# the new vector's norm: one that lies in the basis keeps about k eps of it
# (2.7e-13 for the Golub-Kahan u_6 of a rank-5 A, b in its range), while a
# step of the deblurring and tomography problems keeps at least 0.23.
CGS2_BREAKDOWN_RTOL = 1e-10


def _finite_rhs(b, what="right-hand side"):
    """b as float64; NaN or inf entries are refused."""
    b = np.asarray(b, dtype=np.float64)
    if not np.all(np.isfinite(b)):
        raise ValueError(f"{what} has non-finite entries")
    return b


def _check_count(value, name, none=None):
    """value when it is an integer of at least 1 (a bool is not), or None
    when ``none`` says what None means; else ValueError."""
    if value is None and none is not None:
        return value
    if (not isinstance(value, numbers.Integral) or isinstance(value, bool)
            or value < 1):
        tail = f", or None for {none}" if none is not None else ""
        raise ValueError(f"{name} must be an integer of at least 1{tail}, "
                         f"got {value!r}")
    return value


def _check_tol(tol):
    """tol when finite and non-negative (0: no residual stop); else
    ValueError."""
    if not 0.0 <= tol < np.inf:
        raise ValueError(f"tol must be finite and non-negative, got {tol}")
    return tol


class RowBasis:
    """Vectors of length ``dim`` as the rows of one buffer of ``rows`` rows,
    allocated once (a push past it raises IndexError); ``Q``, the vectors
    as columns, is a view. With ``keep``, only the last ``keep`` vectors
    are kept, in min(rows, keep) rows: a push past ``keep`` moves them down
    one row, so ``Q`` stays oldest-first and contiguous and its views see
    the move. ``lo`` counts the vectors dropped."""

    def __init__(self, dim, rows, keep=None):
        self.keep = keep
        self._rows = np.empty((min(rows, keep or rows), dim))
        self.k = self.lo = 0

    @property
    def Q(self):
        return self._rows[: self.k - self.lo].T

    def push(self, v):
        """Store v as the next row, as it is."""
        i = self.k - self.lo  # v's row in the buffer
        if i == self.keep:  # drop the oldest, one overlapping move
            flat, dim = self._rows.reshape(-1), self._rows.shape[1]
            flat[: flat.size - dim] = flat[dim:]
            self.lo += 1
            i -= 1
        self._rows[i] = v
        self.k += 1

    def append(self, q, window=None, floor=0.0):
        """CGS2, classical Gram-Schmidt with one reorthogonalization pass, of
        q against the last ``window`` rows (all of them for None); stores
        q / |q|, or the zero vector once |q| <= floor. Returns q's
        coefficients [h; |q|] in the basis, the column of a QR of the
        vectors appended (zeros outside the window). A q with NaN or inf
        entries raises ValueError and stores nothing."""
        if not np.isfinite(q @ q):
            raise ValueError("cannot orthogonalize a non-finite vector")
        k = self.k
        lo = 0 if window is None else max(0, k - window)
        Qw = self._rows[lo - self.lo: k - self.lo]
        col = np.zeros(k + 1)
        for _ in range(2):
            h = Qw @ q
            col[lo:k] += h
            q = q - h @ Qw
        col[k] = np.linalg.norm(q)
        self.push(q / col[k] if col[k] > floor else 0.0)
        return col


class FlexibleFactorization:
    """Growing state of an ell-truncated flexible Arnoldi or Golub-Kahan
    factorization of (A, b) with per-step diagonal preconditioners, for at
    most ``k_max`` steps (None: min(m, n), the most a basis can take). The
    bases U and Z are kept in full as views of ``RowBasis`` buffers, and the
    coefficients H as a view of one (k_max + 1)-by-k_max array, all
    allocated once; a step past k_max raises RuntimeError, as a step after
    a breakdown does, and changes nothing. Arnoldi's V is U. Golub-Kahan's
    V is the ell-window, the last ell v's that the next step orthogonalizes
    against, kept in a buffer of ell + 1 rows (in full for ell None); it is
    a view that each step rewrites. The raw columns A z_j are returned by
    ``expand`` and not kept: A Z = U H gives them back from what is kept,
    at any ell, and after a breakdown to within its floor. The flexible
    solvers read their data fit from H and the Gram of U, and keep no
    column QR of the A z_j. An ell or k_max that is not None or an integer
    of at least 1 raises ValueError."""

    def __init__(self, kind, A, b, ell=None, k_max=None):
        if kind not in ("arnoldi", "golub_kahan"):
            raise ValueError(f"unknown factorization kind {kind!r}")
        _check_count(ell, "ell", "full orthogonalization")
        _check_count(k_max, "k_max", "min(m, n)")
        self.kind, self.A, self.ell = kind, A, ell  # ell None: full
        self.b = _finite_rhs(b)
        self.beta1 = float(np.linalg.norm(self.b))
        if self.beta1 == 0.0:
            raise ValueError("cannot build a Krylov space from a zero vector")
        self.k_max = min(A.nrows, A.ncols) if k_max is None else k_max
        self.breakdown = False
        self._U = RowBasis(self.b.size, self.k_max + 1)
        self._U.append(self.b)
        self._H = np.zeros((self.k_max + 1, self.k_max))
        # Arnoldi's V is U: only Golub-Kahan stores a V, and with a window
        # the last ell v's and the newest (a breakdown's zero v) only
        self._V = None if kind == "arnoldi" else RowBasis(
            A.ncols, self.k_max, None if ell is None else ell + 1)
        self._Z = RowBasis(A.ncols, self.k_max)

    @property
    def k(self):
        return self._Z.k

    @property
    def U(self):
        return self._U.Q

    @property
    def V(self):
        if self.kind == "arnoldi":
            return self.U
        # a Golub-Kahan breakdown stores a zero v_{k+1}, outside the view
        V = self._V.Q[:, : self.k - self._V.lo]
        return V if self.ell is None else V[:, -self.ell:]

    @property
    def Z(self):
        return self._Z.Q

    @property
    def H(self):
        return self._H[: self.k + 1, : self.k]

    def expand(self, w_inv):
        """One step k -> k+1 with preconditioner diag(w_inv). Returns the new
        raw column A z_{k+1}, or None when the Golub-Kahan v_{k+1} breaks
        down. Raises after breakdown and at k_max."""
        if self.breakdown:
            raise RuntimeError("factorization already broke down")
        k = self.k
        if k == self.k_max:
            raise RuntimeError(f"factorization already took its k_max = "
                               f"{k} steps")
        w_inv = np.asarray(w_inv, dtype=np.float64)
        if not (np.all(np.isfinite(w_inv)) and np.all(w_inv > 0)):
            raise ValueError("preconditioner entries must be finite and "
                             "positive")
        v = self._U.Q[:, -1]
        if self.kind == "golub_kahan":
            if self._append(self._V, self.A.apply_adjoint(v))[1]:
                self.breakdown = True
                return None
            v = self._V.Q[:, -1]

        z = w_inv * v
        q_raw = self.A.apply(z)
        col, self.breakdown = self._append(self._U, q_raw)
        self._H[: k + 2, k] = col
        self._Z.push(z)
        return q_raw

    def _append(self, basis, q):
        """``RowBasis.append`` of q to ``basis`` in the window, and whether
        q broke down: CGS2 left at most ``CGS2_BREAKDOWN_RTOL`` |q| of it,
        and the zero vector was stored."""
        floor = CGS2_BREAKDOWN_RTOL * np.linalg.norm(q)
        col = basis.append(q, self.ell, floor)
        return col, col[-1] <= floor


@dataclass
class IterativeResult:
    """The returned x; ``Ax``, the op x its solver carried to it (LSQR's top
    m rows only, whatever lam; GMRES's U H y); the residual history; the
    stopping flags."""

    x: np.ndarray
    Ax: np.ndarray
    residuals: np.ndarray
    n_iter: int
    stagnated: bool = False
    converged: bool = False


def lsqr_solve(op, b, lam=0.0, right_precond=None, tol=1e-10, maxit=None,
               callback=None, x0=None, r0=None, atb=None):
    """LSQR on min |[op; sqrt(lam) I] x - [b; 0]| with an optional right
    preconditioner, the upper-triangular R applied as R^{-1} and R^{-T}.

    A nonzero x0 warm-starts it: LSQR solves for the correction from the
    residual [r0; -sqrt(lam) x0], r0 = b - op x0, and returns x0 plus it.
    A x rides along: each iteration's op R^{-1} v_k updates A R^{-1} w_k and
    so A x, with b - r0 standing for op x0, and no extra apply. It is
    passed as ``callback(x, Ax)`` after every iteration and returned as the
    result's ``Ax``; x may be LSQR's own array, updated in place. It
    stops when the normal-equations residual drops below the cold start's
    target, tol |(op R^{-1})^T [b; 0]| with atb = op^T b (each of r0 and atb
    costs an apply unless given), or after ``maxit`` iterations; it flags
    stagnation when 10 iterations pass without progress, that is, without
    the decreases phi^2 of phibar^2 since the last progress point summing to
    over 1e-15 of all so far. b outside the range of op adds to phibar, to
    no phi. Residual history is for the augmented system; a zero start
    residual returns x0 at once.
    """
    if lam < 0.0:
        raise ValueError("lambda must be non-negative")
    _check_tol(tol)
    m, n = op.nrows, op.ncols
    maxit = _check_count(maxit, "maxit", "2n") or 2 * n
    b = _finite_rhs(b)
    if b.shape[0] != m:
        raise ValueError(f"rhs length {b.shape[0]} does not match {m} rows")
    sqlam = np.sqrt(lam)

    prec = prec_t = lambda v: v
    if right_precond is not None:
        R = _finite_rhs(right_precond, "preconditioner")
        if R.shape != (n, n):
            raise ValueError(f"expected a {n}x{n} preconditioner, got "
                             f"{R.shape}")
        # LAPACK trtrs, called as solve_triangular calls it: an F-ordered R
        # as is, else the F-ordered R^T as lower, with trans flipped
        flip = not R.flags.f_contiguous
        R_f = np.asfortranarray(R.T) if flip else R
        trtrs, = scipy.linalg.get_lapack_funcs(("trtrs",), (R_f,))

        def solve(v, trans):
            # each vector is checked, so a NaN or inf from the operator raises
            x, info = trtrs(R_f, _finite_rhs(v, "preconditioned vector"),
                            lower=flip, trans=trans ^ flip)
            if info > 0:
                raise np.linalg.LinAlgError(
                    f"singular preconditioner: zero diagonal {info - 1}")
            return x

        prec = lambda v: solve(v, 0)
        prec_t = lambda v: solve(v, 1)

    def rmatvec(r):
        top = r[:m]
        out = op.apply_adjoint(top)
        if lam > 0.0:
            out = out + sqlam * r[m:]
        return prec_t(out)

    warm = x0 is not None and np.any(x0)
    if warm:
        x0 = _finite_rhs(x0, "starting point")
        r0 = b - op.apply(x0) if r0 is None else r0
        atb = op.apply_adjoint(b) if atb is None else atb
    else:
        x0, r0, atb = np.zeros(n), b, None
    reg0 = -sqlam * x0 if warm else np.zeros(n)
    bb = np.concatenate([r0, reg0]) if lam > 0.0 else r0
    lift = (lambda v: x0 + prec(v)) if warm else prec
    Ax0 = b - r0  # op x0: zeros when cold
    lift_Ax = (lambda Av: Ax0 + Av) if warm else (lambda Av: Av)

    # Paige-Saunders recurrences.
    beta = np.linalg.norm(bb)
    u = bb / beta if beta > 0.0 else bb  # then alpha = 0 below
    v = rmatvec(u)
    alpha = np.linalg.norm(v)
    # |(op R^-1)^T [b; 0]|: the first step's when cold
    grad0 = alpha * beta if atb is None else np.linalg.norm(prec_t(atb))
    if alpha == 0.0:
        return IterativeResult(x0.copy(), Ax0, np.array([beta]), 0,
                               converged=True)
    v /= alpha
    w = v.copy()
    xhat = np.zeros(n)
    Aw, Axhat = np.zeros(m), np.zeros(m)  # A R^{-1} w and A R^{-1} xhat
    ratio = 0.0  # theta / rho of the last w update
    phibar, rhobar = beta, alpha
    residuals = [beta]
    gain = total = 0.0  # phi^2 summed since the last progress point, and all
    last_it = 0
    stagnated = converged = False
    it = 0
    for it in range(1, maxit + 1):
        y = prec(v)
        top = op.apply(y)
        Aw = top - ratio * Aw
        u = (top if lam == 0.0
             else np.concatenate([top, sqlam * y])) - alpha * u
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
        Axhat = Axhat + (phi / rho) * Aw  # new each time: callers keep it
        ratio = theta / rho
        w = v - ratio * w
        residuals.append(phibar)
        if callback is not None:
            callback(lift(xhat), lift_Ax(Axhat))
        gain += phi * phi
        total += phi * phi
        if gain > 1e-15 * total:
            gain, last_it = 0.0, it
        elif it - last_it >= 10:
            stagnated = True
            break
        # |A^T r| = phibar * alpha * |c|
        if abs(phibar * alpha * c) <= tol * grad0:
            converged = True
            break
        if alpha == 0.0 or beta == 0.0:
            converged = True
            break
    return IterativeResult(lift(xhat), lift_Ax(Axhat),
                           np.asarray(residuals), it, stagnated, converged)


def gmres_solve(op, b, tol=1e-10, maxit=None, callback=None):
    """Plain (unrestarted) GMRES for a square operator, on a fully
    orthogonalized Arnoldi factorization with unit weights, sized for and
    run to at most min(maxit, n) steps (None: n; a large n wants a maxit).
    Each iterate x = Z y comes with A x = U H y, read from the factorization
    (it holds after a breakdown too), as ``callback(x, Ax)`` and the
    result's ``Ax``.
    """
    if op.nrows != op.ncols:
        raise ValueError("GMRES needs a square operator")
    _check_tol(tol)
    n = op.ncols
    maxit = min(_check_count(maxit, "maxit", "n") or n, n)
    b = _finite_rhs(b)
    beta = np.linalg.norm(b)
    if beta == 0.0:
        return IterativeResult(np.zeros(n), np.zeros(n), np.array([0.0]), 0,
                               converged=True)
    fact = FlexibleFactorization("arnoldi", op, b, k_max=maxit)
    ones = np.ones(n)
    residuals = [beta]
    x = Ax = np.zeros(n)
    for k in range(1, maxit + 1):
        fact.expand(ones)
        H = fact.H
        e1 = np.zeros(k + 1)
        e1[0] = beta
        y = np.linalg.lstsq(H, e1, rcond=None)[0]
        Hy = H @ y
        rnorm = np.linalg.norm(Hy - e1)
        residuals.append(rnorm)
        x, Ax = fact.Z @ y, fact.U @ Hy
        if callback is not None:
            callback(x, Ax)
        # converged, or happy breakdown: exact solution in the current space
        if rnorm <= tol * beta or fact.breakdown:
            return IterativeResult(x, Ax, np.asarray(residuals), k,
                                   converged=True)
    return IterativeResult(x, Ax, np.asarray(residuals), maxit)
