"""Row-sampling subspace embeddings driven by leverage scores.

A sketch here is always a weighted row selection: row j of the sketched
matrix is ``scales[j]`` times row ``selected_rows[j]`` of the input. Because
the selection is a pure gather, the sketch commutes exactly with diagonal
matrices, which the solvers exploit to reuse cached sketched bases while the
reweighting changes every iteration.

Canonical operation order for the commutation identity: sketching a
diagonally weighted matrix is evaluated as gather, then multiply by the
gathered weights, then multiply by the scales. ``apply_sketch_weighted``
implements that order and is bitwise identical to ``apply_sketch`` applied
to the explicitly weighted matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .krylov import FlexibleFactorization


@dataclass(frozen=True)
class SketchOperator:
    """Weighted row-selection embedding from R^m to R^s."""

    s: int
    m: int
    selected_rows: np.ndarray  # int indices in [0, m)
    scales: np.ndarray
    seed: int | None = None

    def __post_init__(self):
        rows = self.selected_rows
        if rows.shape != (self.s,) or self.scales.shape != (self.s,):
            raise ValueError("selected_rows and scales must have length s")
        # a negative row would gather from the end, a float one not at all
        if not np.issubdtype(rows.dtype, np.integer) or rows.size and (
                rows.min() < 0 or rows.max() >= self.m):
            raise ValueError(f"selected_rows must be integers in [0, "
                             f"{self.m})")
        if not np.all(np.isfinite(self.scales)) or np.any(self.scales <= 0):
            raise ValueError("scales must be finite and positive")


def identity_sketch(m):
    """The trivial s = m sketch selecting every row once with unit scale."""
    return SketchOperator(s=m, m=m, selected_rows=np.arange(m),
                          scales=np.ones(m))


# Below this estimate of R's reciprocal condition number (LAPACK dtrcon, in
# the 1-norm) the scores come from a pivoted QR of M, not from M R^{-1},
# whose rounding grows like cond(R) * eps.
_RCOND_MIN = 1e-8
_ROW_BLOCK = 512


def estimate_leverage_scores(M, R=None):
    """Leverage scores of the rows of M: squared row norms of its orthonormal
    range basis. Sums to rank(M); each score lies in [0, 1]. Given the
    k-by-k R of a QR of M (such as the R of ``irn._reduce_system``), they
    are the squared row norms of M R^{-1}, from triangular solves over
    ``_ROW_BLOCK``-row blocks, so no m-row basis is formed; a
    rank-deficient or ill-conditioned R (reciprocal condition estimate
    below ``_RCOND_MIN``), or none, leaves them to a pivoted QR of M."""
    M = np.asarray(M, dtype=np.float64)
    m, k = M.shape
    if k > m:
        raise ValueError(f"need at least as many rows as columns, got {m}x{k}")
    if R is not None:
        if R.shape != (k, k):
            raise ValueError(f"expected a {k}x{k} R, got {R.shape}")
        if k and scipy.linalg.lapack.dtrcon(R)[0] >= _RCOND_MIN:
            # R^T Y = M_i^T, solved in place in one Fortran-ordered buffer
            # as lower-triangular (R^T) Y = M_i^T, which is the call that
            # solve_triangular makes for a C-ordered R
            RT, scores = np.asfortranarray(R.T), np.empty(m)
            buf = np.empty((k, min(m, _ROW_BLOCK)), order="F")
            for i in range(0, m, _ROW_BLOCK):  # block i of M R^{-1}, as Y^T
                Y = buf[:, :min(m - i, _ROW_BLOCK)]
                Y[...] = M[i:i + _ROW_BLOCK].T
                scipy.linalg.lapack.dtrtrs(RT, Y, lower=1, overwrite_b=1)
                scores[i:i + _ROW_BLOCK] = np.einsum("ij,ij->j", Y, Y)
            return scores
    q, r, _ = scipy.linalg.qr(M, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    tol = max(m, k) * np.finfo(np.float64).eps * (diag[0] if diag.size else 0.0)
    rank = int(np.sum(diag > tol))
    if rank == 0:
        raise ValueError("cannot compute leverage scores of the zero matrix")
    return np.einsum("ij,ij->i", q[:, :rank], q[:, :rank])


def build_leverage_sketch(p, s, seed):
    """Sample s rows i.i.d. proportionally to p (via inverse-CDF on a Philox
    counter-based stream) and attach the scales sqrt(sum(p) / (s * p[row]))."""
    p = np.asarray(p, dtype=np.float64)
    if s < 1:
        raise ValueError("sketch size must be at least 1")
    if np.any(p < 0):
        raise ValueError("leverage scores must be non-negative")
    total = p.sum()
    if total <= 0.0:
        raise ValueError("all-zero probability vector")
    cdf = np.cumsum(p / total)
    cdf[-1] = 1.0
    rng = np.random.Generator(np.random.Philox(seed))
    u = rng.random(s)
    rows = np.searchsorted(cdf, u, side="right")
    scales = np.sqrt(total / (s * p[rows]))
    return SketchOperator(
        s=int(s), m=p.shape[0], selected_rows=rows, scales=scales, seed=int(seed)
    )


def build_flex_sketches(A, b, k_max, multiplier, seed):
    """Frozen leverage-score sketches for the flexible solvers: S1 sampled
    against the left (data-space) and S2 against the right (solution-space)
    basis of a Golub-Kahan pilot factorization of (A, b) with unit weights.
    Its depth min(k_max, 20, m - 1, n) keeps the m-by-(depth+1) U and the
    n-by-depth V no wider than tall. Full CGS2 makes both bases orthonormal
    to rounding, so their leverage scores are their squared row norms, and
    no basis is factored again: a breakdown's zero column adds 0, and an
    empty V (m = 1, or A^T b = 0) gives uniform scores."""
    depth = min(k_max, 20, A.nrows - 1, A.ncols)
    pilot = FlexibleFactorization("golub_kahan", A, b, k_max=max(depth, 1))
    ones = np.ones(A.ncols)
    while pilot.k < depth and not pilot.breakdown:
        pilot.expand(ones)
    U, V = pilot.U, pilot.V
    s = max(multiplier * k_max, U.shape[1] + 1)
    S1 = build_leverage_sketch(np.einsum("ij,ij->i", U, U), s, seed)
    S2 = build_leverage_sketch(np.einsum("ij,ij->i", V, V) if V.size
                               else ones, s, seed + 1)
    return S1, S2


def apply_sketch(S, M):
    """S @ M for a matrix (or vector) M with m rows: gather, then scale.
    The gather is a new s-row array and is scaled in place, so the sketch
    holds no second copy of it."""
    M = np.asarray(M, dtype=np.float64)
    if M.shape[0] != S.m:
        raise ValueError(f"expected {S.m} rows, got {M.shape[0]}")
    G = M[S.selected_rows]
    G *= S.scales if M.ndim == 1 else S.scales[:, None]
    return G


def commute_diagonal(S, w):
    """Weights w-bar with S @ diag(w) == diag(w-bar) @ S; the gather w[rows]."""
    w = np.asarray(w, dtype=np.float64)
    if w.shape[0] != S.m:
        raise ValueError(f"expected {S.m} diagonal entries, got {w.shape[0]}")
    return w[S.selected_rows]


def apply_sketch_weighted(S, w, M):
    """S @ diag(w) @ M in the canonical order: gather rows of M, multiply by
    the gathered weights, then by the scales.

    Bitwise identical to ``apply_sketch(S, w[:, None] * M)``.
    """
    wbar = commute_diagonal(S, w)
    M = np.asarray(M, dtype=np.float64)
    if M.shape[0] != S.m:
        raise ValueError(f"expected {S.m} rows, got {M.shape[0]}")
    gathered = M[S.selected_rows]
    if gathered.ndim == 1:
        return (wbar * gathered) * S.scales
    return (wbar[:, None] * gathered) * S.scales[:, None]


def measure_distortion(S, basis, trials=50, seed=0):
    """Empirical embedding distortion over span(basis): the maximum of
    abs(norm(Sx)/norm(x) - 1) over random trial vectors in the span."""
    basis = np.asarray(basis, dtype=np.float64)
    if basis.ndim == 1:
        basis = basis[:, None]
    norms = np.linalg.norm(basis, axis=0)
    if not np.any(norms > 0):
        raise ValueError("all-zero basis")
    rng = np.random.Generator(np.random.Philox(seed))
    worst = 0.0
    k = basis.shape[1]
    SB = apply_sketch(S, basis)
    for _ in range(trials):
        c = rng.standard_normal(k)
        x = basis @ c
        nx = np.linalg.norm(x)
        if nx == 0.0:
            continue
        ratio = np.linalg.norm(SB @ c) / nx
        worst = max(worst, abs(ratio - 1.0))
    return worst


def span_distortion(S, basis):
    """Exact distortion over span(basis) from the extreme singular values of
    S applied to an orthonormal basis of the span."""
    q, _ = np.linalg.qr(np.asarray(basis, dtype=np.float64))
    sv = np.linalg.svd(apply_sketch(S, q), compute_uv=False)
    return max(abs(sv[0] - 1.0), abs(1.0 - sv[-1]))
