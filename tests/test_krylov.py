import numpy as np
import pytest
import scipy.sparse.linalg

from randkrylov.krylov import (
    FlexibleFactorization,
    gmres_solve,
    lsqr_solve,
)
from randkrylov.operators import DenseOperator


def _rng(seed=0):
    return np.random.Generator(np.random.Philox(seed))


def test_lsqr_matches_scipy():
    rng = _rng(1)
    M = rng.standard_normal((40, 15))
    b = rng.standard_normal(40)
    res = lsqr_solve(DenseOperator(M), b, tol=1e-14)
    ref = scipy.sparse.linalg.lsqr(M, b, atol=1e-14, btol=1e-14)[0]
    np.testing.assert_allclose(res.x, ref, rtol=1e-8, atol=1e-10)
    assert res.converged


def test_lsqr_tikhonov_matches_direct():
    rng = _rng(2)
    M = rng.standard_normal((30, 12))
    b = rng.standard_normal(30)
    lam = 0.3
    res = lsqr_solve(DenseOperator(M), b, lam=lam, tol=1e-14)
    ref = np.linalg.solve(M.T @ M + lam * np.eye(12), M.T @ b)
    np.testing.assert_allclose(res.x, ref, rtol=1e-9, atol=1e-11)


def test_lsqr_right_preconditioner_preserves_solution():
    rng = _rng(3)
    M = rng.standard_normal((25, 10))
    b = rng.standard_normal(25)
    lam = 0.1
    R = np.linalg.cholesky(M.T @ M + lam * np.eye(10)).T
    prec = (lambda v: scipy.linalg.solve_triangular(R, v, lower=False),
            lambda v: scipy.linalg.solve_triangular(R, v, lower=False,
                                                    trans="T"))
    res = lsqr_solve(DenseOperator(M), b, lam=lam, right_precond=prec,
                     tol=1e-14)
    ref = np.linalg.solve(M.T @ M + lam * np.eye(10), M.T @ b)
    np.testing.assert_allclose(res.x, ref, rtol=1e-9, atol=1e-11)
    # perfect preconditioning: converge almost immediately
    assert res.n_iter <= 3


def test_lsqr_validation():
    rng = _rng(4)
    op = DenseOperator(rng.standard_normal((5, 3)))
    with pytest.raises(ValueError):
        lsqr_solve(op, np.zeros(4))
    with pytest.raises(ValueError):
        lsqr_solve(op, np.zeros(5), lam=-1.0)


def test_gmres_matches_direct_solve():
    rng = _rng(5)
    M = rng.standard_normal((20, 20)) + 5.0 * np.eye(20)
    b = rng.standard_normal(20)
    res = gmres_solve(DenseOperator(M), b, tol=1e-13)
    np.testing.assert_allclose(res.x, np.linalg.solve(M, b),
                               rtol=1e-8, atol=1e-10)
    assert res.converged
    with pytest.raises(ValueError):
        gmres_solve(DenseOperator(np.ones((3, 2))), np.ones(3))


def test_gmres_residuals_nonincreasing():
    rng = _rng(6)
    M = rng.standard_normal((15, 15))
    res = gmres_solve(DenseOperator(M), rng.standard_normal(15), maxit=15)
    diffs = np.diff(res.residuals)
    assert np.all(diffs <= 1e-10 * res.residuals[0])


@pytest.mark.parametrize("kind", ["arnoldi", "golub_kahan"])
@pytest.mark.parametrize("ell", [None, 2])
def test_factorization_identity(kind, ell):
    # A Psi^{-1} Z_k = U_{k+1} H_{k+1,k} holds for any truncation window and
    # any per-step positive weights
    rng = _rng(7)
    n = 12
    M = rng.standard_normal((n, n))
    fact = FlexibleFactorization(kind, DenseOperator(M),
                                 rng.standard_normal(n), ell=ell)
    for _ in range(8):
        w_inv = rng.random(n) + 0.2
        fact.expand(w_inv)
    lhs = M @ fact.Z
    rhs = fact.U @ fact.H
    np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-10)


def test_factorization_standard_arnoldi_reduction():
    # identity weights + full orthogonalization: U orthonormal, H Hessenberg
    rng = _rng(8)
    n = 10
    M = rng.standard_normal((n, n))
    fact = FlexibleFactorization("arnoldi", DenseOperator(M),
                                 rng.standard_normal(n), ell=None)
    for _ in range(6):
        fact.expand(np.ones(n))
    U = fact.U
    np.testing.assert_allclose(U.T @ U, np.eye(7), atol=1e-12)
    H = fact.H
    assert np.max(np.abs(np.tril(H, -2))) < 1e-14
    # Z equals the Arnoldi vectors themselves
    np.testing.assert_allclose(fact.Z, U[:, :6], atol=1e-14)


def test_factorization_standard_bidiagonal_reduction():
    # identity weights + full orthogonalization Golub-Kahan: H lower
    # bidiagonal, U and V orthonormal
    rng = _rng(9)
    M = _rng(9).standard_normal((14, 9))
    fact = FlexibleFactorization("golub_kahan", DenseOperator(M),
                                 rng.standard_normal(14), ell=None)
    for _ in range(6):
        fact.expand(np.ones(9))
    H = fact.H
    mask = np.ones_like(H, dtype=bool)
    idx = np.arange(6)
    mask[idx, idx] = False
    mask[idx + 1, idx] = False
    assert np.max(np.abs(H[mask])) < 1e-12
    np.testing.assert_allclose(fact.V.T @ fact.V, np.eye(6), atol=1e-12)
    np.testing.assert_allclose(fact.U.T @ fact.U, np.eye(7), atol=1e-12)


def test_factorization_breakdown_identity_operator():
    n = 6
    rng = _rng(10)
    b = rng.standard_normal(n)
    fact = FlexibleFactorization("arnoldi", DenseOperator(np.eye(n)),
                                 b, ell=None)
    out = fact.expand(np.ones(n))
    assert fact.breakdown
    assert out is not None  # the raw column exists; the new U direction is 0
    with pytest.raises(RuntimeError):
        fact.expand(np.ones(n))


def test_factorization_rejects_bad_input():
    with pytest.raises(ValueError):
        FlexibleFactorization("bogus", DenseOperator(np.eye(2)),
                              np.ones(2))
    with pytest.raises(ValueError):
        FlexibleFactorization("arnoldi", DenseOperator(np.eye(2)),
                              np.zeros(2))
    fact = FlexibleFactorization("arnoldi", DenseOperator(np.eye(2)),
                                 np.ones(2))
    with pytest.raises(ValueError):
        fact.expand(np.array([1.0, -1.0]))

