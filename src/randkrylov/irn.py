"""Iteratively reweighted norm (majorization-minimization) outer loops, with
plain LSQR inner solves or the randomized partly-exact-sketch preconditioned
variant.

Each outer step rebuilds the diagonal weights at the current iterate and
solves the standard-form reweighted least-squares subproblem in the scaled
variable s = W_k x by LSQR warm-started at s0 = W_k x_{k-1}, from the
previous objective's residual b - A x_{k-1}, to the cold start's target
tol |(A W_k^{-1} R^{-1})^T b| (A^T b is taken once per solve). At fixed
lambda the MM objective then never rises, at any inner tolerance.

``_TraceRecorder`` writes the trace of every solver (these loops, flex,
FISTA, the CLI's lsqr and gmres); IRN's ``cum_inner`` adds inner iterations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .krylov import lsqr_solve
from .operators import CompositeOperator, DiagonalOperator
from .regparam import LambdaPolicy, SpectralPair, select_lambda
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
    at it from the caller's A x (one apply of A when there is none), numbers
    the row, adds ``inner`` to the cumulative inner count and passes the
    diagnostic flags through. It returns A x, for the next warm start."""

    def __init__(self, A, b, weight, x_true):
        self.A, self.b, self.weight = A, b, weight
        # x_true = 0, like None (np.any(None) is False): no relative error
        self.x_true = x_true if np.any(x_true) else None
        self.x, self.trace = None, []
        self.cum_inner = 0

    def row(self, x, lam, inner=1, Ax=None, **flags):
        Ax = self.A.apply(x) if Ax is None else Ax
        obj_mm, obj_lit = objective_values(self.A, self.b, x, self.weight,
                                           lam, Ax=Ax)
        self.cum_inner += inner
        self.x = x.copy()
        rel_error = (float("nan") if self.x_true is None else float(
            np.linalg.norm(x - self.x_true) / np.linalg.norm(self.x_true)))
        self.trace.append(TraceRow(
            outer=len(self.trace) + 1, cum_inner=self.cum_inner,
            rel_error=rel_error, objective_mm=obj_mm,
            objective_literal=obj_lit, lam=lam, **flags))
        return Ax

    def result(self):
        return SolveResult(self.x, self.trace)


def _dense_system_matrix(A):
    """Materialized A (desk scale only): the irn-s2p sketch and the one QR
    behind the dp, gcv and optimal policies start from it."""
    return A.matrix if hasattr(A, "matrix") else A.materialize()


@dataclass(frozen=True)
class _ReducedSystem:
    """What the lambda rules read of A = Q R and b, with Q never formed: the
    k-by-n R (k = min(m, n)), Q^T b, beta_perp = |b - Q Q^T b|, the row
    count m and |b|."""

    R: np.ndarray
    qtb: np.ndarray
    beta_perp: float
    m: int
    b_norm: float


def _reduce_system(M, b):
    """One Householder QR of the bordered [M, b], whose R factor is
    [R, Q^T b; 0, +-beta_perp]. Exact for any shape and rank."""
    m, n = M.shape
    k = min(m, n)
    T = np.linalg.qr(np.column_stack([M, b]), mode="r")
    beta_perp = abs(float(T[k, n])) if m > n else 0.0
    return _ReducedSystem(T[:k, :n], T[:k, n], beta_perp, m,
                          float(np.linalg.norm(b)))


def _reweighted_pair(system, w_inv):
    """Spectral pair of the reweighted system A W^{-1}, from the SVD of the
    small R W^{-1}: A W^{-1} = (Q U) diag(sigma) V^T whenever R W^{-1} =
    U diag(sigma) V^T, so the pair is (sigma, 1, U^T Q^T b, beta_perp, V),
    and GCV still counts all m rows."""
    U, sv, Vt = np.linalg.svd(system.R * w_inv[None, :], full_matrices=False)
    return SpectralPair(sv, np.ones_like(sv), U.T @ system.qtb,
                        system.beta_perp, Vt.T,
                        float(sv[0] ** 2) if sv.size else 1.0, system.m)


def _select_lambda(policy, system, w_inv, solution_map):
    """One lambda update per outer iteration, from the pair of the reweighted
    system A W^{-1}: an n-by-n SVD, with A = Q R taken once per solve."""
    if policy.kind == "fixed":
        return policy.lam
    return select_lambda(policy, _reweighted_pair(system, w_inv),
                         system.b_norm, solution_map)


def irn_solve(A, b, config, x_true=None):
    """Majorization-minimization with unpreconditioned LSQR inner solves."""
    return _irn_loop(A, b, config, x_true, sketch=None)


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


def irn_s2p_solve(A, b, config, sketch, x_true=None):
    """IRN with every inner LSQR right-preconditioned by the Cholesky factor
    of the sketched Gram matrix; the sketch of A is computed once."""
    return _irn_loop(A, b, config, x_true, sketch=sketch)


def _irn_loop(A, b, config, x_true, sketch):
    b = np.asarray(b, dtype=np.float64)
    n = A.ncols
    inner_max = config.inner_max if config.inner_max is not None else 2 * n
    policy = config.lambda_policy
    weight = config.weight

    M = system = C0 = None
    if sketch is not None or policy.kind != "fixed":
        M = _dense_system_matrix(A)
    if policy.kind != "fixed":
        system = _reduce_system(M, b)
    if sketch is not None:
        Y0 = apply_sketch(sketch, M)  # S A
        C0 = Y0.T @ Y0
    del M  # the loop reads only the reduced system and C0

    atb = A.apply_adjoint(b)  # the inner stopping targets
    x, Ax = np.zeros(n), np.zeros(A.nrows)
    rec = _TraceRecorder(A, b, weight, x_true)
    for _ in range(config.outer_max):
        w = compute_weights(x, weight)
        w_inv = 1.0 / w
        lam = _select_lambda(policy, system, w_inv, w_inv.__mul__)  # s -> x
        op_k = CompositeOperator([A, DiagonalOperator(w_inv)])

        R = (None if sketch is None
             else build_partly_exact_preconditioner(C0, w, lam))
        res = lsqr_solve(
            op_k, b, lam=lam, right_precond=R,
            tol=config.inner_tol, maxit=inner_max,
            x0=w * x, r0=b - Ax, atb=w_inv * atb,
        )
        x = w_inv * res.x
        Ax = rec.row(x, lam, res.n_iter, stagnated=res.stagnated)
    return rec.result()
