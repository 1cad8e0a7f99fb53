"""Iteratively reweighted norm (majorization-minimization) outer loops, with
plain LSQR inner solves or the randomized partly-exact-sketch preconditioned
variant, whose factor floors lam at 1e-14 as the flexible schemes' does (a
lambda rule may pick 0; LSQR and the trace keep the chosen lam).

Each outer step rebuilds the diagonal weights at the current iterate and
solves the standard-form reweighted least-squares subproblem in the scaled
variable s = W_k x by LSQR warm-started at s0 = W_k x_{k-1}, to the cold
start's target tol |(A W_k^{-1} R^{-1})^T b|. At fixed lambda the MM
objective then never rises, at any inner tolerance.

When the loop holds a dense matrix of A = Q R (a dense A, or one that a
sketch or a lambda rule materializes), the inner solves run on the n-by-n
R W_k^{-1} with right-hand side Q^T b, from one QR of [A, b] per problem:
LSQR's iterates depend only on the normal equations, which are the same,
and |A W^{-1} s - b|^2 = |R W^{-1} s - Q^T b|^2 + beta_perp^2. Each trace
row reads its data fit from that identity, and the reduced residual is the
next warm start's, so A applies once per solve, at the last row, which
keeps every final objective exact. A matrix-free A at fixed lambda with no
sketch is neither materialized nor reduced: each inner LSQR carries A x
through its recurrence, each trace row but the last reads it, the next
solve warm-starts from the residual b - A x_{k-1} it gives, and A^T b is
taken once per solve; A applies once beyond the inner iterations, at the
last row.

``_TraceRecorder`` writes the trace of every solver (these loops, flex and
the ``baselines``); IRN's ``cum_inner`` adds inner iterations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .bidiag import bidiag_svd
from .krylov import _finite_rhs, lsqr_solve
from .operators import CompositeOperator, DenseOperator, DiagonalOperator
from .regparam import LambdaPolicy, SpectralPair, select_lambda, svd_factors
from .sketching import apply_sketch
from .weights import WeightSpec, compute_weights, objective_values


@dataclass(frozen=True)
class IRNConfig:
    weight: WeightSpec = WeightSpec()
    outer_max: int = 20
    inner_tol: float = 1e-8
    inner_max: int | None = None  # defaults to 2n
    lambda_policy: LambdaPolicy = LambdaPolicy()

    def __post_init__(self):
        if self.outer_max < 1:
            raise ValueError("need at least one outer iteration")
        if self.inner_max is not None and self.inner_max < 1:
            raise ValueError("inner_max must be at least 1, or None for 2n")
        if not self.inner_tol > 0.0:
            raise ValueError("inner_tol must be positive")
        if self.lambda_policy.kind == "wgcv":
            raise ValueError("wgcv is a projected-problem policy; IRN has none")


@dataclass
class TraceRow:
    outer: int
    cum_inner: int
    rel_error: float  # nan when x_true is unknown or zero
    objective_mm: float
    objective_literal: float
    lam: float
    eps_hat: float = float("nan")
    mono_satisfied: bool | None = None
    breakdown: bool = False
    stagnated: bool = False


@dataclass
class SolveResult:
    x: np.ndarray
    trace: list

    def column(self, name):
        return [getattr(row, name) for row in self.trace]


class _TraceRecorder:
    """The latest x and the trace of one solve. ``row`` records x: it keeps
    a copy (a caller may update its x in place), evaluates both objectives
    at it from the caller's data fit |A x - b|^2 or A x (one apply of A when
    it passes neither), numbers the row, adds ``inner`` to the cumulative
    inner count and passes the diagnostic flags through."""

    def __init__(self, A, b, weight, x_true):
        self.A, self.b, self.weight = A, b, weight
        # x_true = 0, like None (np.any(None) is False): no relative error
        self.x_true = x_true if np.any(x_true) else None
        self.x, self.trace = None, []
        self.cum_inner = 0

    def row(self, x, lam, inner=1, Ax=None, fit=None, **flags):
        if Ax is None and fit is None:
            Ax = self.A.apply(x)
        obj_mm, obj_lit = objective_values(self.A, self.b, x, self.weight,
                                           lam, Ax=Ax, fit=fit)
        self.cum_inner += inner
        self.x = x.copy()
        rel_error = (float("nan") if self.x_true is None else float(
            np.linalg.norm(x - self.x_true) / np.linalg.norm(self.x_true)))
        self.trace.append(TraceRow(
            outer=len(self.trace) + 1, cum_inner=self.cum_inner,
            rel_error=rel_error, objective_mm=obj_mm,
            objective_literal=obj_lit, lam=lam, **flags))

    def result(self):
        return SolveResult(self.x, self.trace)


def _dense_system_matrix(A):
    """Dense A (desk scale only): a dense operator's own matrix, else
    materialized. The irn-s2p sketch and the one QR of [A, b], behind the
    inner solves and the dp, gcv and optimal policies, start from it."""
    return A.matrix if hasattr(A, "matrix") else A.materialize()


@dataclass(frozen=True)
class _ReducedSystem:
    """What the inner solves and the lambda rules read of A = Q R and b,
    with Q never formed: the k-by-n R (k = min(m, n)), Q^T b, beta_perp =
    |b - Q Q^T b|, the row count m and |b|."""

    R: np.ndarray
    qtb: np.ndarray
    beta_perp: float
    m: int
    b_norm: float


def _reduce_system(M, b):
    """One Householder QR of the bordered [M, b], whose R factor is
    [R, Q^T b; 0, +-beta_perp]. Exact for any shape and rank. IRN's inner
    LSQR runs on (R W^{-1}, Q^T b), and its lambda rules read all of it;
    R and Q^T b are copied out, so the bordered factor is freed."""
    m, n = M.shape
    k = min(m, n)
    T = np.linalg.qr(np.column_stack([M, b]), mode="r")
    beta_perp = abs(float(T[k, n])) if m > n else 0.0
    return _ReducedSystem(np.ascontiguousarray(T[:k, :n]), T[:k, n].copy(),
                          beta_perp, m, float(np.linalg.norm(b)))


def _reweighted_pair(system, w_inv, coef=False):
    """Spectral pair of the reweighted system A W^{-1}, from the small
    R W^{-1}: A W^{-1} = (Q U) diag(sigma) V^T whenever R W^{-1} =
    U diag(sigma) V^T, so the pair is (sigma, U^T Q^T b, beta_perp, V),
    and GCV still counts all m rows. V, which only the optimal oracle reads,
    comes from NumPy's SVD with ``coef``; else one bidiagonalization gives
    sigma and U^T Q^T b with U never formed, and the pair's coef is None."""
    with np.errstate(invalid="ignore"):  # inf * 0 = nan: both SVDs raise
        M = system.R * w_inv[None, :]
    sv, beta_t, V = (svd_factors(M, system.qtb) if coef
                     else (*bidiag_svd(M, system.qtb), None))
    return SpectralPair(sv, beta_t, system.beta_perp, V,
                        float(sv[0] ** 2) if sv.size else 1.0, system.m)


def _select_lambda(policy, system, w_inv):
    """One lambda update per outer iteration, from the pair of the reweighted
    system A W^{-1} (``_reweighted_pair``), with A = Q R taken once per
    solve. The oracle's map s -> x = W^{-1} s has Gram data (W^{-2},
    W^{-1} x_true)."""
    if policy.kind == "fixed":
        return policy.lam
    optimal = policy.kind == "optimal"
    gram = (np.diag(w_inv**2), w_inv * policy.x_true) if optimal else None
    return select_lambda(policy, _reweighted_pair(system, w_inv, optimal),
                         system.b_norm, gram)


def irn_solve(A, b, config, x_true=None, reduced=None):
    """Majorization-minimization with unpreconditioned LSQR inner solves.
    ``reduced``, ``_reduce_system`` of a dense A and this b, saves the
    solve its own QR."""
    return _irn_loop(A, b, config, x_true, None, reduced)


def build_partly_exact_preconditioner(C0, w, lam):
    """Upper-triangular R with R^T R = W^{-1} C0 W^{-1} + lam I.

    C0 is the Gram matrix of the sketched system matrix; W = diag(w) holds
    the current weights. Raises on Cholesky failure with advice to raise lam.
    """
    if lam <= 0.0:
        raise ValueError("preconditioner needs lambda > 0")
    w = np.asarray(w, dtype=np.float64)
    w_inv = 1.0 / w
    C = C0 * np.outer(w_inv, w_inv)
    C[np.diag_indices_from(C)] += lam
    try:
        return scipy.linalg.cholesky(C, lower=False)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            "Cholesky of the sketched Gram matrix failed; increase lambda "
            "above the rounding floor of the sketched system norm"
        ) from exc


def irn_s2p_solve(A, b, config, sketch, x_true=None, reduced=None):
    """IRN with every inner LSQR right-preconditioned by the Cholesky factor
    of the sketched Gram matrix; the sketch of A is computed once.
    ``reduced`` as for ``irn_solve``."""
    return _irn_loop(A, b, config, x_true, sketch, reduced)


def _irn_loop(A, b, config, x_true, sketch, reduced):
    b = _finite_rhs(b)
    n = A.ncols
    inner_max = config.inner_max if config.inner_max is not None else 2 * n
    policy = config.lambda_policy
    weight = config.weight

    C0 = None
    if hasattr(A, "matrix") or sketch is not None or policy.kind != "fixed":
        M = _finite_rhs(_dense_system_matrix(A), "system matrix")
        if reduced is None:
            reduced = _reduce_system(M, b)
        if sketch is not None:
            Y0 = apply_sketch(sketch, M)  # S A
            C0 = Y0.T @ Y0
        del M  # the loop reads only the reduced system and C0

    # the inner solves' operator and right-hand side: A and b, or R and Q^T b
    op, rhs = ((A, b) if reduced is None
               else (DenseOperator(reduced.R), reduced.qtb))
    atb = op.apply_adjoint(rhs)  # A^T b = R^T Q^T b: the stopping targets
    x, r = np.zeros(n), rhs  # r = rhs - op x, each inner solve's start
    rec = _TraceRecorder(A, b, weight, x_true)
    for outer in range(1, config.outer_max + 1):
        w = compute_weights(x, weight)
        w_inv = 1.0 / w
        lam = _select_lambda(policy, reduced, w_inv)
        op_k = CompositeOperator([op, DiagonalOperator(w_inv)])

        R = (None if sketch is None
             else build_partly_exact_preconditioner(C0, w, max(lam, 1e-14)))
        res = lsqr_solve(
            op_k, rhs, lam=lam, right_precond=R,
            tol=config.inner_tol, maxit=inner_max, x0=w * x, r0=r,
            atb=w_inv * atb,
        )
        x = w_inv * res.x
        last = outer == config.outer_max
        if reduced is None:  # LSQR carried A x; the last row applies A
            r = b - res.Ax
            rec.row(x, lam, res.n_iter, stagnated=res.stagnated,
                    Ax=None if last else res.Ax)
            continue
        r = rhs - op.apply(x)  # the last row applies A, the others read
        fit = float(r @ r) + reduced.beta_perp**2  # the reduced fit
        rec.row(x, lam, res.n_iter, stagnated=res.stagnated,
                fit=None if last else fit)
    return rec.result()
