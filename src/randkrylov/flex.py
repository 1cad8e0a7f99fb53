"""Flexible Krylov solvers on ell-truncated bases: sketch-and-solve,
sketch-to-precondition, and the exact (dense projected) reference scheme.

All three run one loop (``_flex_loop``), in the flexible Golub-Kahan /
Arnoldi framework of Chung & Gazzola (SISC 2019), that branches on nothing
but the scheme name each entry point passes. Each iteration rebuilds the
diagonal weights W at the current iterate, expands the flexible
factorization A Zbar = U H, b = beta1 u1 by one column with W^{-1} as
preconditioner, and updates its projected pairs. Their data fit lives in
k + 1 rows: |B (H y - beta1 e1)| = |R_B (H y - beta1 e1)| with R_B^T R_B =
B^T B (``_BasisGram``), for B = U and, in the two sketched schemes (which
need both sketches), B = S1 U. R2 is an R of W Zbar (``_weighted_r``), or
the R of S2 W Zbar (the identity outside ``irw`` mode). No m-row QR is
kept. Once the basis is spent (breakdown, or k reaches min(m, n)) every
scheme keeps it and only re-weights R2. The schemes differ only in how the
projected Tikhonov problem in the coefficients y of x = Zbar y is solved,
and one selector (``_select_projected_lambda``) picks lambda on the pair
that the step solves:

* ``exact``: stacked QR of the unsketched pair (m rows).
* ``sketch_and_solve``: stacked QR of the sketched pair (S1.s rows); the
  projected problem is itself sketched. Only this scheme is certified: it
  records the distortion and monotonicity diagnostics, read exactly from
  the two pairs at every iteration, with no random probe or apply of A.
* ``sketch_to_precondition``: LSQR on the unsketched pair's k-column
  [R1; sqrt(lam) R2] with right-hand side [beta; 0], right-preconditioned
  by the R that sketch-and-solve solves with (Blendenpik's preconditioner,
  from a QR, not from normal equations). LSQR's iterates depend only on the
  normal equations, and these are the full problem's, so its iterations
  apply neither A nor U nor Zbar. It starts from the previous coefficients
  padded with zeros and stops at the cold start's target, as IRN's inner
  solves do, so in ``irw`` mode at fixed lambda the MM objective never
  rises, at any inner tolerance.

All three factor the stacked pair in ``_stacked_factor``; a singular one is
retried once at ``irn._LAMBDA_FLOOR``. Each iteration is one trace row
(``irn._TraceRecorder``); its ``cum_inner`` adds the inner LSQR iterations
of s2p and 1 per iteration for the other two schemes. A row reads A x =
A Zbar y = U H y from the factorization, so every scheme applies A once per
expansion (A^T too for Golub-Kahan), and the recorder once more per run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .krylov import (BREAKDOWN_RTOL, FlexibleFactorization, _check_count,
                     lsqr_solve)
from .irn import _LAMBDA_FLOOR, _TraceRecorder, _reduce_system
from .operators import DenseOperator
from .regparam import LambdaPolicy, projected_pair, select_lambda
from .sketching import _ROW_BLOCK, apply_sketch, apply_sketch_weighted
from .weights import WeightSpec, compute_weights


@dataclass
class ProjectedProblem:
    """Small triangular pair for fast lambda sweeps: the data-fit QR factor
    R1 with projected right-hand side beta (and out-of-range residual
    beta_perp), and the regularization QR factor R2."""

    R1: np.ndarray
    beta: np.ndarray
    beta_perp: float
    R2: np.ndarray
    k: int


def _stacked(pp, lam):
    """The stacked pair [R1; sqrt(lam) R2] (R1 alone at lam = 0)."""
    if lam < 0.0:
        raise ValueError("lambda must be non-negative")
    return pp.R1 if lam == 0.0 else np.vstack([pp.R1, np.sqrt(lam) * pp.R2])


def _stacked_factor(pp, lam):
    """Q and R of the QR of the stacked pair, the factor that every scheme
    solves or preconditions with; LinAlgError when R is numerically
    singular."""
    q, r = np.linalg.qr(_stacked(pp, lam))
    diag = np.abs(np.diag(r))
    if diag.size and diag.min() <= 1e-14 * max(diag.max(), 1.0):
        raise np.linalg.LinAlgError("singular stacked pair [R1; sqrt(lam) R2]")
    return q, r


def solve_projected_tikhonov(pp, lam):
    """Minimizer of |R1 y - beta|^2 + lam |R2 y|^2 via a stacked QR (never
    explicit normal equations)."""
    q, r = _stacked_factor(pp, lam)
    rhs = pp.beta if lam == 0.0 else np.concatenate([pp.beta, np.zeros(pp.k)])
    return scipy.linalg.solve_triangular(r, q.T @ rhs, lower=False)


def check_monotonicity_condition(qhat_prev, qhat_curr, eps_k):
    """Sufficient-decrease test on the sketched functional: satisfied when
    (qhat_prev - qhat_curr)/qhat_curr >= 2*eps/(1-eps). Returns the flag and
    the margin (lhs - rhs)."""
    if not (0.0 <= eps_k < 1.0):
        raise ValueError("distortion must lie in [0, 1)")
    if qhat_curr < 0.0:
        raise ValueError("sketched functional must be non-negative")
    rhs = 2.0 * eps_k / (1.0 - eps_k)
    if qhat_curr == 0.0:
        return True, np.inf
    lhs = (qhat_prev - qhat_curr) / qhat_curr
    return lhs >= rhs, lhs - rhs


@dataclass(frozen=True)
class FlexSolverConfig:
    basis: str = "golub_kahan"  # "arnoldi" | "golub_kahan"
    mode: str = "irw"  # "none" | "hybrid" | "irw"
    scheme: str = "sketch_and_solve"  # | "sketch_to_precondition" | "exact"
    ell: int | None = 4
    k_max: int = 50
    weight: WeightSpec = WeightSpec()
    lambda_policy: LambdaPolicy = LambdaPolicy()
    inner_tol: float = 1e-10

    def __post_init__(self):
        if self.basis not in ("arnoldi", "golub_kahan"):
            raise ValueError(f"unknown basis {self.basis!r}")
        if self.mode not in ("none", "hybrid", "irw"):
            raise ValueError(f"unknown regularization mode {self.mode!r}")
        if self.scheme not in ("sketch_and_solve", "sketch_to_precondition",
                               "exact"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        _check_count(self.k_max, "k_max")
        _check_count(self.ell, "ell", "full orthogonalization")
        if not 0.0 < self.inner_tol < np.inf:
            raise ValueError("inner_tol must be positive and finite")
        if (self.scheme == "sketch_to_precondition"
                and self.lambda_policy.kind in ("gcv", "wgcv")):
            raise ValueError("sketch-to-precondition supports fixed, dp and "
                             "optimal policies only")


class _BasisGram:
    """B^T B of a basis B that gains one column per expansion: the
    factorization's U, read as its view and never copied (S1 None), or
    S1 U, kept as the rows S1 u_j in U's layout so that an identity sketch
    gives the same pair bit for bit."""

    def __init__(self, fact, size, S1=None):
        self.fact, self.S1 = fact, S1
        self._rows = None if S1 is None else np.empty((size, S1.s))
        self._G = np.zeros((size, size))  # upper triangle
        self.j = 0
        self.add()  # u1 = b / beta1

    @property
    def B(self):
        return (self.fact.U if self.S1 is None else self._rows.T)[:, : self.j]

    def add(self):
        """Take in the factorization's next u, one GEMV."""
        j = self.j
        if self.S1 is not None:
            self._rows[j] = apply_sketch(self.S1, self.fact.U[:, j])
        self.j += 1
        self._G[: j + 1, j] = self.B.T @ self.B[:, j]

    def pair(self, R2):
        """The pair of min |B (H y - beta1 e1)|^2 + lam |R2 y|^2: R_B from
        the Gram's Cholesky factor, or from a QR of B when the Gram is
        numerically singular (a square Golub-Kahan basis at k = m), then R1,
        beta and beta_perp from one Householder QR of the bordered
        R_B [H, beta1 e1]."""
        j, H = self.j, self.fact.H
        try:
            R = scipy.linalg.cholesky(self._G[:j, :j])
        except np.linalg.LinAlgError:
            R = np.linalg.qr(self.B, mode="r")
        fit = _reduce_system(R @ H[:j], self.fact.beta1 * R[:, 0])
        return ProjectedProblem(fit.R, fit.qtb, fit.beta_perp, R2, H.shape[1])


# the largest diagonal ratio of a Cholesky R2 that ``_weighted_r`` keeps
_GRAM_COND_LIMIT = 1e6


def _weighted_r(w, Z):
    """An R with R^T R = (W Zbar)^T (W Zbar), from blocks of ``_ROW_BLOCK``
    rows, so no n-by-k W Zbar is formed: the Cholesky factor of the Gram
    sum_b (W_b Zbar_b)^T (W_b Zbar_b). The squaring loses accuracy as
    cond(W Zbar)^2, so when Cholesky fails or the factor's diagonal ratio,
    a lower bound on cond(W Zbar), passes ``_GRAM_COND_LIMIT``, it is the R
    of the blocked Householder QR (R <- qr([R; W_b Zbar_b])) instead."""
    blocks = [slice(lo, lo + _ROW_BLOCK)
              for lo in range(0, Z.shape[0], _ROW_BLOCK)]
    G = np.zeros((Z.shape[1],) * 2)
    for rows in blocks:
        B = w[rows, None] * Z[rows]
        G += B.T @ B
    try:
        R = scipy.linalg.cholesky(G)
        diag = np.abs(np.diag(R))
        if not diag.size or diag.max() <= _GRAM_COND_LIMIT * diag.min():
            return R
    except np.linalg.LinAlgError:
        pass
    R = np.zeros((0, Z.shape[1]))
    for rows in blocks:
        R = np.linalg.qr(np.vstack([R, w[rows, None] * Z[rows]]), mode="r")
    return R


def _select_projected_lambda(policy, pp, b_norm, sketch_rows, gram):
    """Every scheme's lambda, on the pair its step solves, of ``sketch_rows``
    rows; ``gram`` is the oracle's (Zbar^T Zbar, Zbar^T x_true)."""
    if policy.kind == "fixed":
        return policy.lam
    pair = projected_pair(pp.R1, pp.beta, pp.beta_perp, pp.R2)
    return select_lambda(policy, pair, b_norm, gram, sketch_rows)


def _factor_distortion(R_hat, R):
    """max |sigma(R_hat R^{-1}) - 1|, the distortion of a sketch S over
    range(M) when M = Q R and S M = Q_hat R_hat; inf for a singular R."""
    try:
        T = scipy.linalg.solve_triangular(R, R_hat.T, trans="T").T
    except np.linalg.LinAlgError:
        return np.inf
    sv = np.linalg.svd(T, compute_uv=False)
    return max(abs(sv[0] - 1.0), abs(1.0 - sv[-1])) if sv.size else 0.0


def _sketch_distortion(pp_hat, pp, b_norm):
    """Exact distortion of S1 over span([A Zbar, b]) and of S2 over
    span(W Zbar), from the sketched pair pp_hat and the unsketched pair pp.
    Once b lies in span(A Zbar) (the unsketched beta_perp is zero to
    rounding, e.g. after the basis is spent) the border is dropped. Outside
    ``irw`` mode both R2 are the identity and the S2 term is 0."""
    if pp.beta_perp <= BREAKDOWN_RTOL * b_norm:
        eps1 = _factor_distortion(pp_hat.R1, pp.R1)
    else:  # the R factors [R1 beta; 0 beta_perp] of [A Zbar, b] and its sketch
        border = lambda p: np.block([[p.R1, p.beta[:, None]],
                                     [np.zeros((1, p.k)), p.beta_perp]])
        eps1 = _factor_distortion(border(pp_hat), border(pp))
    return max(eps1, _factor_distortion(pp_hat.R2, pp.R2))


def sns_flex_solve(A, b, config, S1, S2, x_true=None):
    """Sketch-and-solve flexible Krylov iteration (Arnoldi or Golub-Kahan
    basis), with the regularization parameter chosen on the sketched
    projected problem."""
    return _flex_loop("sketch_and_solve", A, b, config, S1, S2, x_true)


def exact_flex_solve(A, b, config, x_true=None):
    """Reference scheme: identical basis growth, dense QR of the unsketched
    projected matrices."""
    return _flex_loop("exact", A, b, config, None, None, x_true)


def s2p_flex_solve(A, b, config, S1, S2, x_true=None):
    """Sketch-to-precondition flexible Krylov iteration: the unsketched
    projected problem is solved by LSQR, right-preconditioned with the R
    factor of the stacked QR of the sketched pair."""
    return _flex_loop("sketch_to_precondition", A, b, config, S1, S2, x_true)


def _projected_majorant(pp, y, lam):
    """The sketched functional the sketch-and-solve step minimizes,
    |S1 (A x - b)|^2 + lam |R2 y|^2 at x = Zbar y, read from the sketched
    pair without an apply of A. The penalty is |S2 W x|^2 in ``irw`` mode
    (``sketched_majorant_value``) and |y|^2 otherwise."""
    r = pp.R1 @ y - pp.beta
    s2 = pp.R2 @ y
    return float(r @ r) + pp.beta_perp**2 + lam * float(s2 @ s2)


def _flex_loop(scheme, A, b, config, S1, S2, x_true):
    if config.scheme != scheme:
        raise ValueError(f"config.scheme must be {scheme!r}")
    sketched = scheme != "exact"
    n, m = A.ncols, A.nrows
    if sketched and (S1 is None or S2 is None or (S1.m, S2.m) != (m, n)):
        raise ValueError(f"the {scheme} scheme needs sketches S1 of A's "
                         f"{m} rows and S2 of its {n} columns")
    s2p, certify = (scheme == "sketch_to_precondition",
                    scheme == "sketch_and_solve")
    weight, policy = config.weight, config.lambda_policy

    k_max = min(config.k_max, m, n)  # the most columns the basis can get
    fact = FlexibleFactorization(config.basis, A, b, ell=config.ell,
                                 k_max=k_max)
    b, b_norm = fact.b, fact.beta1
    # the Grams of U and of S1 U, whose factors give the data-fit pairs
    fit = _BasisGram(fact, k_max + 1)
    fit1 = _BasisGram(fact, k_max + 1, S1) if sketched else None

    x, y = np.zeros(n), np.zeros(0)  # y: the coefficients of x in the basis
    rec = _TraceRecorder(A, b, weight, x_true)
    eps_hat = float("nan")
    for _ in range(config.k_max):
        w = compute_weights(x, weight)

        if not fact.breakdown and fact.k < k_max:
            # a breakdown adds no u, or a zero u that adds nothing to U H
            fact.expand(1.0 / w)
            if not fact.breakdown:
                fit.add()
                if sketched:
                    fit1.add()
        Z = fact.Z
        w_reg = w if config.mode == "irw" else None  # the L of R2 = qr(L Z)

        pp0 = fit.pair(np.eye(fact.k) if w_reg is None
                       else _weighted_r(w_reg, Z))
        pp = (fit1.pair(np.eye(fact.k) if w_reg is None else np.linalg.qr(
                  apply_sketch_weighted(S2, w_reg, Z), mode="r"))
              if sketched else pp0)
        # the oracle's Gram data of the map y -> x = Zbar y
        gram = ((Z.T @ Z, Z.T @ policy.x_true) if policy.kind == "optimal"
                else None)

        lam = 0.0 if config.mode == "none" else _select_projected_lambda(
            policy, pp if certify else pp0, b_norm, S1.s if certify else m,
            gram)  # on the pair the step solves
        # the previous iterate in the current basis
        y_prev = np.pad(y, (0, fact.k - y.size))

        def step(lam):
            if s2p:
                res = _s2p_projected_solve(pp0, pp, lam, config.inner_tol,
                                           y_prev)
                return res.x, res.n_iter, res.stagnated
            return solve_projected_tikhonov(pp, lam), 1, False
        try:
            y, inner, stagnated = step(lam)
        except np.linalg.LinAlgError:
            # a singular stacked pair (rank-deficient R2 with lam ~ 0): apply
            # the floor and retry; the trace keeps the chosen lam
            y, inner, stagnated = step(max(lam, _LAMBDA_FLOOR))
        x = Z @ y
        r = fact.U @ (fact.H @ y) - b  # A x - b = A Zbar y - b = U H y - b

        mono = None
        if certify:
            eps_hat = _sketch_distortion(pp, pp0, b_norm)
            if eps_hat < 1.0:
                mono, _margin = check_monotonicity_condition(
                    _projected_majorant(pp, y_prev, lam),
                    _projected_majorant(pp, y, lam), eps_hat,
                )
        rec.row(x, lam, float(r @ r), inner, eps_hat=eps_hat,
                mono_satisfied=mono, breakdown=fact.breakdown,
                stagnated=stagnated)
    return rec.result()


def _s2p_projected_solve(pp0, pp, lam, tol, y0):
    """LSQR on [R1; sqrt(lam) R2] y ~ [beta; 0] of the unsketched pair pp0,
    right-preconditioned by the R factor of the sketched pair pp's stacked
    QR, and warm-started at y0. It has the normal equations of
    [A Zbar; sqrt(lam) L] y ~ [b; 0], in k columns."""
    _, R = _stacked_factor(pp, lam)
    op = DenseOperator(_stacked(pp0, lam))
    rhs = np.concatenate([pp0.beta, np.zeros(op.nrows - pp0.k)])
    return lsqr_solve(op, rhs, right_precond=R, tol=tol,
                      maxit=max(4 * op.ncols, 8), x0=y0)


# Kept for the benchmark's span table (perfbench/tracing.py SPANS). A plain
# alias would be traced twice, as the tracer rebinds every name of a function.
_select_s2p_lambda = lambda *args: _select_projected_lambda(*args)
