"""Iteratively reweighted norm (majorization-minimization) outer loops, with
plain LSQR inner solves or the randomized partly-exact-sketch preconditioned
variant.

Each outer step rebuilds the diagonal weights at the current iterate and
solves the standard-form reweighted least-squares subproblem in the scaled
variable s = W_k x by LSQR warm-started at s0 = W_k x_{k-1}, to the cold
start's target tol |(A W_k^{-1} R^{-1})^T b|. At fixed lambda the MM
objective then never rises, at any inner tolerance.

When the loop holds a dense matrix of A = Q R (a dense A, or one that a
sketch or a lambda rule materializes), the inner solves run on the n-by-n
R W_k^{-1} with right-hand side Q^T b, from one QR of [A, b] per problem:
LSQR's iterates depend only on the normal equations, which are the same,
and |A W^{-1} s - b|^2 = |R W^{-1} s - Q^T b|^2 + beta_perp^2: the trace
row reads its data fit, and the next solve its warm start, from the reduced
residual. A matrix-free A at fixed lambda with no sketch is neither
materialized nor reduced: each inner LSQR carries A x, from which the row
and the next warm start read b - A x; A^T b is taken once per solve.

Beyond A, the dense path holds O(n^2) whatever m is: the QR streams
[A, b] in row blocks into an (n+1)-square triangle, the irn-s2p Gram
C0 = (S A)^T (S A) gathers one block of sketched rows at a time, A's
finiteness is checked block by block, and each outer iteration holds one
n-by-n preconditioner, only for its inner solve, and for dp or gcv one
n-by-n R W_k^{-1}, which becomes its own Gram and then that Gram's
tridiagonal form. When m >= n the reduced R is square and upper
triangular, and every solve applies it as a triangle (BLAS trmv).

``_TraceRecorder`` writes the trace of every solver (these loops, flex and
the ``baselines``); IRN's ``cum_inner`` adds inner iterations.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dlauum

from .krylov import _check_count, _finite_rhs, lsqr_solve
from .operators import (CompositeOperator, DenseOperator, DiagonalOperator,
                        TriangularOperator)
from .regparam import (LambdaPolicy, SpectralPair, _lapack, select_lambda,
                       svd_factors, tridiagonal_pair)
from .sketching import _ROW_BLOCK, apply_sketch
from .weights import WeightSpec, compute_weights, objective_values


@dataclass(frozen=True)
class IRNConfig:
    weight: WeightSpec = WeightSpec()
    outer_max: int = 20
    inner_tol: float = 1e-8
    inner_max: int | None = None  # defaults to 2n
    lambda_policy: LambdaPolicy = LambdaPolicy()

    def __post_init__(self):
        _check_count(self.outer_max, "outer_max")
        _check_count(self.inner_max, "inner_max", "2n")
        if not 0.0 < self.inner_tol < np.inf:
            raise ValueError("inner_tol must be positive and finite")
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
    """The latest x and the trace of one solve, and the only code that
    applies A for a trace row. ``row`` records x from the caller's data fit
    |A x - b|^2 and applies nothing: it keeps a copy of x (a caller may
    update its x in place), evaluates both objectives, numbers the row,
    adds ``inner`` to the cumulative inner count and passes the flags
    through. A fit read from a factorization or a carried A x is exact to
    rounding only, so ``result`` re-evaluates the last row's objectives
    from one apply of A at the final x, or from the caller's ``fit`` when
    that came from an apply: every final objective is exact."""

    def __init__(self, A, b, weight, x_true):
        self.A, self.b, self.weight = A, b, weight
        # x_true = 0, like None (np.any(None) is False): no relative error
        self.x_true = x_true if np.any(x_true) else None
        self.x, self.trace, self.cum_inner = None, [], 0

    def row(self, x, lam, fit, inner=1, **flags):
        obj_mm, obj_lit = objective_values(self.A, self.b, x, self.weight,
                                           lam, fit)
        self.cum_inner += inner
        self.x = x.copy()
        rel_error = (float("nan") if self.x_true is None else float(
            np.linalg.norm(x - self.x_true) / np.linalg.norm(self.x_true)))
        self.trace.append(TraceRow(
            outer=len(self.trace) + 1, cum_inner=self.cum_inner,
            rel_error=rel_error, objective_mm=obj_mm,
            objective_literal=obj_lit, lam=lam, **flags))

    def result(self, fit=None):
        final = self.trace[-1]
        final.objective_mm, final.objective_literal = objective_values(
            self.A, self.b, self.x, self.weight, final.lam, fit)
        return SolveResult(self.x, self.trace)


def _dense_system_matrix(A):
    """Dense A (desk scale only): a dense operator's own matrix, else
    materialized. The irn-s2p sketch and the one QR of [A, b], behind the
    inner solves and the dp, gcv and optimal policies, start from it."""
    return A.matrix if hasattr(A, "matrix") else A.materialize()


@dataclass(frozen=True)
class _ReducedSystem:
    """What the inner solves and the lambda rules read of A = Q R and b,
    with Q never formed: the k-by-n R (k = min(m, n)), upper triangular,
    Q^T b, beta_perp = |b - Q Q^T b|, the row count m and |b|."""

    R: np.ndarray
    qtb: np.ndarray
    beta_perp: float
    m: int
    b_norm: float

    @property
    def op(self):
        """R as the operator that every solve on the reduced system
        applies: by trmv when R is square (m >= n), dense when wide."""
        k, n = self.R.shape
        return TriangularOperator(self.R) if k == n else DenseOperator(self.R)


def _reduce_system(M, b):
    """One Householder QR of the bordered [M, b], whose R factor is
    [R, Q^T b; 0, +-beta_perp]. Exact for any shape and rank. IRN's inner
    LSQR runs on (R W^{-1}, Q^T b), and its lambda rules read all of it.
    Non-finite [M, b] raises ValueError.

    [M, b] is streamed in row blocks (sequential TSQR; Demmel, Grigori,
    Hoemmen and Langou, SISC 2012), each copied into a Fortran-ordered
    buffer that LAPACK factors in place: blocked geqrf the first
    max(``_ROW_BLOCK``, n + 1) rows (its workspace query passes the
    overwrite flag too, or f2py would copy the buffer for it), then tpqrt
    folds each later ``_ROW_BLOCK`` rows into the (n+1)-square triangle,
    in reflector blocks of geqrf's own size. So it holds that triangle and
    one block, O(n^2 + block n) whatever m is, and no m-row copy; the
    rows of R and Q^T b are fixed up to their signs, which no reader
    sees. R and Q^T b are copied out, so the buffers are freed."""
    m, n = M.shape
    k, first = min(m, n), max(_ROW_BLOCK, n + 1)
    T = _bordered_rows(M, b, 0, first)
    geqrf, tpqrt = scipy.linalg.get_lapack_funcs(("geqrf", "tpqrt"), (T,))
    lwork = int(geqrf(T, lwork=-1, overwrite_a=1)[2][0])
    T = geqrf(T, lwork=lwork, overwrite_a=1)[0]
    if m > first:  # tpqrt reads only the triangle's upper part
        T, nb = T[:n + 1].copy(order="F"), min(lwork // (n + 1), n + 1)
        for lo in range(first, m, _ROW_BLOCK):
            T = tpqrt(0, nb, T, _bordered_rows(M, b, lo, lo + _ROW_BLOCK),
                      overwrite_a=1, overwrite_b=1)[0]
    beta_perp = abs(float(T[k, n])) if m > n else 0.0
    return _ReducedSystem(np.triu(T[:k, :n]), T[:k, n].copy(), beta_perp, m,
                          float(np.linalg.norm(b)))


def _bordered_rows(M, b, lo, hi):
    """Rows lo:hi of [M, b] as a new Fortran-ordered array; a NaN or inf
    among them raises ValueError."""
    T = np.empty((min(hi, M.shape[0]) - lo, M.shape[1] + 1), order="F")
    T[:, :-1], T[:, -1] = M[lo:hi], b[lo:hi]
    return _finite_rhs(T, "the bordered system [M, b]")


def _finite_rows(M, what):
    """M as float64, a NaN or inf refused with ValueError; checked in
    ``_ROW_BLOCK``-row blocks, so no m-row bool array is formed."""
    M = np.asarray(M, dtype=np.float64)
    for lo in range(0, M.shape[0], _ROW_BLOCK):
        _finite_rhs(M[lo:lo + _ROW_BLOCK], what)
    return M


def _reweighted_pair(system, w_inv, coef=False):
    """Pair of the reweighted system A W^{-1}, from the small M = R W^{-1}
    and Q^T b; GCV still counts all m rows. With ``coef`` (the optimal
    oracle, which reads V) it is the ``SpectralPair`` of NumPy's SVD of M:
    A W^{-1} = (Q U) diag(sigma) V^T whenever M = U diag(sigma) V^T. Else
    it is the ``TridiagonalPair`` of the left Gram G = M M^T = R W^{-2} R^T,
    which dp and gcv read. A square M is upper triangular, and LAPACK
    dlauum overwrites it with G's upper triangle (in n^3/3 flops, against
    n^3 for a GEMM), which ``tridiagonal_pair`` reduces in place: M's
    buffer is the rule's only n-by-n array. A wide M's G is a GEMM."""
    with np.errstate(all="ignore"):  # a non-finite M or G: both pairs raise
        M = system.R * w_inv[None, :]
        if coef:
            sv, beta_t, V = svd_factors(M, system.qtb)
            return SpectralPair(sv, beta_t, system.beta_perp, V,
                                float(sv[0] ** 2) if sv.size else 1.0,
                                system.m)
        if M.shape[0] == M.shape[1]:  # M.T is the lower L, and L^T L = G
            G = _lapack(dlauum, M.T, lower=1, overwrite_c=1)[0].T
        else:
            G = M @ M.T
    del M  # a wide M is freed; a square one's buffer is G's
    return tridiagonal_pair(G, system.qtb, system.beta_perp, system.m)


def _select_lambda(policy, system, w_inv):
    """One lambda update per outer iteration, from the pair of the reweighted
    system A W^{-1} (``_reweighted_pair``), with A = Q R taken once per
    solve. The oracle's map s -> x = W^{-1} s has Gram data (W^{-2},
    W^{-1} x_true), W^{-2} passed as its diagonal."""
    if policy.kind == "fixed":
        return policy.lam
    optimal = policy.kind == "optimal"
    gram = (w_inv**2, w_inv * policy.x_true) if optimal else None
    return select_lambda(policy, _reweighted_pair(system, w_inv, optimal),
                         system.b_norm, gram)


def irn_solve(A, b, config, x_true=None, reduced=None):
    """Majorization-minimization with unpreconditioned LSQR inner solves.
    ``reduced``, ``_reduce_system`` of a dense A and this b, saves the
    solve its own QR."""
    return _irn_loop(A, b, config, x_true, None, reduced)


# the least lambda of a factor (s2p's, flex's retry): a lambda rule may pick 0
_LAMBDA_FLOOR = 1e-14


def build_partly_exact_preconditioner(C0, w, lam):
    """Upper-triangular R with R^T R = W^{-1} C0 W^{-1} + lam I.

    C0 is the Gram matrix of the sketched system matrix; W = diag(w) holds
    the current weights. Raises on Cholesky failure with advice to raise lam.
    """
    if lam <= 0.0:
        raise ValueError("preconditioner needs lambda > 0")
    w = np.asarray(w, dtype=np.float64)
    w_inv = 1.0 / w
    C = np.outer(w_inv, w_inv)
    C *= C0  # the bits of C0 * outer, with no second n-by-n array
    C[np.diag_indices_from(C)] += lam
    _finite_rows(C, "preconditioner Gram matrix")
    # C is ours and symmetric bit for bit (C0 is a Gram matrix), so its
    # transpose is the Fortran-ordered C that potrf factors in place
    potrf, = scipy.linalg.get_lapack_funcs(("potrf",), (C,))
    R, info = potrf(C.T, lower=False, overwrite_a=1, clean=1)
    if info > 0:
        raise np.linalg.LinAlgError(
            "Cholesky of the sketched Gram matrix failed; increase lambda "
            "above the rounding floor of the sketched system norm")
    return R


def _sketched_gram(sketch, M):
    """C0 = (S M)^T (S M), the Gram of the sketched system matrix that each
    partly-exact preconditioner scales. S M is gathered through
    ``apply_sketch`` one ``_ROW_BLOCK`` of sketched rows at a time, and
    SciPy's dsyrk adds each block's Y^T Y to C0's upper triangle, which is
    then mirrored: it holds C0 and one block, never all s rows of S M."""
    n = M.shape[1]
    C0 = np.zeros((n, n), order="F")
    syrk, = scipy.linalg.get_blas_funcs(("syrk",), (C0,))
    for lo in range(0, sketch.s, _ROW_BLOCK):
        hi = min(lo + _ROW_BLOCK, sketch.s)
        part = replace(sketch, s=hi - lo,
                       selected_rows=sketch.selected_rows[lo:hi],
                       scales=sketch.scales[lo:hi])
        # Y^T Y as Y.T (Y.T)^T: Y.T is Fortran-ordered, so f2py copies
        # nothing, and the block is freed before the next is gathered
        C0 = syrk(1.0, apply_sketch(part, M).T, beta=1.0, c=C0,
                  overwrite_c=1)
    for j in range(n - 1):
        C0[j + 1:, j] = C0[j, j + 1:]
    return C0.T  # C-ordered, as C0 is symmetric bit for bit


def irn_s2p_solve(A, b, config, sketch, x_true=None, reduced=None,
                  gram=None):
    """IRN with every inner LSQR right-preconditioned by the Cholesky factor
    of the sketched Gram matrix; the sketch of A is computed once.
    ``reduced`` as for ``irn_solve``; ``gram``, ``_sketched_gram`` of this
    sketch and A, saves the solve its own S A; with both, A is not copied."""
    return _irn_loop(A, b, config, x_true, sketch, reduced, gram)


def _irn_loop(A, b, config, x_true, sketch, reduced, C0=None):
    b = _finite_rhs(b)
    n = A.ncols
    inner_max = config.inner_max if config.inner_max is not None else 2 * n
    policy = config.lambda_policy
    weight = config.weight

    gram = sketch is not None and C0 is None
    if gram or reduced is None and (hasattr(A, "matrix") or sketch is not None
                                    or policy.kind != "fixed"):
        M = _finite_rows(_dense_system_matrix(A), "system matrix")
        if reduced is None:
            reduced = _reduce_system(M, b)
        if gram:
            C0 = _sketched_gram(sketch, M)
        del M  # the loop reads only the reduced system and C0

    # the inner solves' operator and right-hand side: A and b, or R and Q^T b
    op, rhs, beta_perp = ((A, b, 0.0) if reduced is None else
                          (reduced.op, reduced.qtb, reduced.beta_perp))
    atb = op.apply_adjoint(rhs)  # A^T b = R^T Q^T b: the stopping targets
    x, r = np.zeros(n), rhs  # r = rhs - op x, each inner solve's start
    rec = _TraceRecorder(A, b, weight, x_true)
    for _ in range(config.outer_max):
        w = compute_weights(x, weight)
        w_inv = 1.0 / w
        lam = _select_lambda(policy, reduced, w_inv)
        op_k = CompositeOperator([op, DiagonalOperator(w_inv)])
        # the preconditioner lives only as long as its inner solve
        res = lsqr_solve(
            op_k, rhs, lam=lam, right_precond=None if sketch is None else
            build_partly_exact_preconditioner(C0, w, max(lam, _LAMBDA_FLOOR)),
            tol=config.inner_tol, maxit=inner_max, x0=w * x, r0=r,
            atb=w_inv * atb,
        )
        x = w_inv * res.x
        # LSQR carried A x; R x, on the reduced system, costs one apply of R
        r = rhs - (res.Ax if reduced is None else op.apply(x))
        rec.row(x, lam, float(r @ r) + beta_perp**2, res.n_iter,
                stagnated=res.stagnated)
    return rec.result()
