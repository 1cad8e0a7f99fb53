import tracemalloc

import numpy as np
import pytest
import scipy.sparse.linalg

from randkrylov.krylov import (
    FlexibleFactorization,
    RowBasis,
    gmres_solve,
    lsqr_solve,
)
from randkrylov.operators import DenseOperator, IdentityOperator
from randkrylov.problems import add_noise, gen_tomo


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
    res = lsqr_solve(DenseOperator(M), b, lam=lam, right_precond=R,
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
    with pytest.raises(ValueError, match="starting point"):
        lsqr_solve(op, np.ones(5), x0=np.array([np.nan, 0.0, 0.0]))


class _NanAdjoint(DenseOperator):
    def _apply_adjoint(self, y):
        out = super()._apply_adjoint(y)
        out[0] = np.nan
        return out


def test_lsqr_preconditioned_refuses_non_finite_values():
    # R is checked once per solve and each vector it is applied to, so a NaN
    # from the operator raises instead of giving a silent NaN x
    rng = _rng(6)
    M = rng.standard_normal((12, 4))
    R = np.triu(rng.standard_normal((4, 4))) + 3.0 * np.eye(4)
    bad = R.copy()
    bad[0, 3] = np.inf
    with pytest.raises(ValueError, match="preconditioner has non-finite"):
        lsqr_solve(DenseOperator(M), np.ones(12), right_precond=bad)
    with pytest.raises(ValueError, match="preconditioned vector"):
        lsqr_solve(_NanAdjoint(M), np.ones(12), right_precond=R)


@pytest.mark.parametrize("t", [0.0, 1e2, 1e4, 1e6])
def test_lsqr_stagnation_ignores_b_outside_the_range(t):
    # b = M x + t |M x| n_perp, n_perp a unit vector orthogonal to range(M):
    # the normal equations, and with them LSQR's iterates, do not depend on
    # t. A stagnation test relative to |b| stopped at t = 1e2 after 148
    # iterations, 4.5e-3 away from the least-squares solution
    rng = np.random.default_rng(3)
    M = rng.standard_normal((200, 40)) @ np.diag(np.geomspace(1, 1e-3, 40))
    Mx = M @ rng.standard_normal(40)
    Q = np.linalg.qr(M, mode="complete")[0]
    n_perp = Q[:, 40:] @ rng.standard_normal(160)
    b = Mx + t * np.linalg.norm(Mx) * n_perp / np.linalg.norm(n_perp)
    res = lsqr_solve(DenseOperator(M), b, tol=1e-10, maxit=400)
    assert res.converged and not res.stagnated
    ref = np.linalg.lstsq(M, b, rcond=None)[0]
    assert np.linalg.norm(res.x - ref) <= 1e-6 * np.linalg.norm(ref)


def test_lsqr_stagnates_on_a_consistent_system_at_tol_zero():
    # tol = 0 never stops on the gradient test: phibar falls to rounding
    # level, then 10 iterations pass without progress
    rng = _rng(5)
    M = rng.standard_normal((8, 5))
    x_true = rng.standard_normal(5)
    iterates = []
    res = lsqr_solve(DenseOperator(M), M @ x_true, tol=0.0, maxit=200,
                     callback=lambda x, Ax: iterates.append(x))
    assert res.stagnated and not res.converged
    assert res.n_iter == len(iterates) < 200
    assert np.all(np.diff(res.residuals) <= 0.0)
    # phibar never rises, so the last iterate is returned as it is
    assert np.array_equal(res.x, iterates[-1])
    np.testing.assert_allclose(res.x, x_true, rtol=1e-12)


def test_lsqr_zero_rhs_returns_the_start():
    rng = _rng(6)
    op = DenseOperator(rng.standard_normal((6, 4)))
    for lam in (0.0, 0.5):
        res = lsqr_solve(op, np.zeros(6), lam=lam)
        assert res.n_iter == 0 and res.converged
        assert np.array_equal(res.x, np.zeros(4))
    # a warm start whose residual is zero: b = op x0 and no penalty
    x0 = rng.standard_normal(4)
    res = lsqr_solve(op, op.apply(x0), x0=x0)
    assert res.n_iter == 0 and res.converged
    assert np.array_equal(res.x, x0)


def _carried_A_x_gaps(op, b, **kwargs):
    """The relative gap between LSQR's carried A x and a true apply, at
    every callback and then at the result."""
    gaps = []

    def gap(x, Ax):
        true = op.apply(x)
        gaps.append(np.linalg.norm(Ax - true) / max(np.linalg.norm(true),
                                                     1e-300))
    res = lsqr_solve(op, b, callback=gap, **kwargs)
    assert len(gaps) == res.n_iter
    gap(res.x, res.Ax)
    return res, gaps


def test_lsqr_carries_A_x():
    # A x rides on LSQR's recurrence with no apply of its own; it is the
    # top m-row block also when lam > 0 or a right preconditioner is given
    rng = _rng(7)
    M = rng.standard_normal((40, 15))
    op, b = DenseOperator(M), rng.standard_normal(40)
    x0 = rng.standard_normal(15)
    # from a third of the rows: a preconditioner, not the exact factor
    R = np.linalg.cholesky(M[:20].T @ M[:20] + 0.3 * np.eye(15)).T
    runs = {
        "cold": dict(tol=0.0, maxit=30),
        "warm": dict(tol=0.0, maxit=30, x0=x0, r0=b - M @ x0),
        "lam": dict(lam=0.3, tol=0.0, maxit=30),
        "precond": dict(lam=0.3, right_precond=R, tol=1e-14, maxit=30),
    }
    for name, kwargs in runs.items():
        res, gaps = _carried_A_x_gaps(op, b, **kwargs)
        assert res.n_iter >= 2, name
        assert max(gaps) <= 1e-13, (name, max(gaps))

    # a stagnating run (test_lsqr_stagnates_on_a_consistent_system_at_tol_zero)
    M8 = _rng(5).standard_normal((8, 5))
    res, gaps = _carried_A_x_gaps(DenseOperator(M8),
                                  M8 @ _rng(5).standard_normal(5), tol=0.0,
                                  maxit=200)
    assert res.stagnated and max(gaps) <= 1e-13

    # the alpha = 0 return: A x0, b - r0 when warm and zeros when cold
    for kwargs in (dict(), dict(x0=x0)):
        rhs = M @ x0 if kwargs else np.zeros(40)
        res, gaps = _carried_A_x_gaps(op, rhs, **kwargs)
        assert res.n_iter == 0 and gaps == [0.0]

    # 1,000 steps on the tomography problem of criterion 10
    inst = add_noise(gen_tomo(64, n_angles=18, seed=31), 0.01, 32)
    res, gaps = _carried_A_x_gaps(inst.A, inst.b, tol=0.0, maxit=1000)
    assert res.n_iter == 1000 and max(gaps) <= 1e-13, max(gaps)


class _CountingDense(DenseOperator):
    def __init__(self, M):
        super().__init__(M)
        self.calls = 0

    def _apply(self, x):
        self.calls += 1
        return super()._apply(x)

    def _apply_adjoint(self, y):
        self.calls += 1
        return super()._apply_adjoint(y)


def _warm_instance(seed=7, m=40, n=15, lam=0.05):
    # an ill-conditioned system, and a right preconditioner from a perturbed
    # Gram matrix, so that LSQR takes a few dozen iterations
    rng = _rng(seed)
    M = rng.standard_normal((m, n)) * np.logspace(0, -3, n)
    b = rng.standard_normal(m)
    G = M.T @ M + lam * np.eye(n)
    E = rng.standard_normal((n, n))
    R = np.linalg.cholesky(G + 0.5 * np.linalg.norm(G, 2) * (E @ E.T) / n).T
    return M, b, R, lam


def test_lsqr_zero_start_is_the_cold_call():
    M, b, R, lam = _warm_instance()
    op = DenseOperator(M)
    for kw in ({}, dict(lam=lam), dict(lam=lam, right_precond=R)):
        cold = lsqr_solve(op, b, tol=1e-10, **kw)
        warm = lsqr_solve(op, b, tol=1e-10, x0=np.zeros(15),
                          r0=np.ones(40), atb=np.ones(15), **kw)
        assert cold.n_iter == warm.n_iter
        assert cold.x.tobytes() == warm.x.tobytes()
        assert cold.residuals.tobytes() == warm.residuals.tobytes()


def test_lsqr_warm_start_at_the_solution_stops_at_once():
    M, b, R, lam = _warm_instance()
    op = DenseOperator(M)
    for kw in (dict(lam=lam), dict(lam=lam, right_precond=R)):
        cold = lsqr_solve(op, b, tol=1e-10, **kw)
        assert cold.converged and cold.n_iter > 5
        warm = lsqr_solve(op, b, tol=1e-10, x0=cold.x, **kw)
        assert warm.converged and warm.n_iter <= 1


def test_lsqr_warm_start_meets_the_cold_target():
    M, b, R, lam = _warm_instance()
    tol = 1e-8
    x_ref = np.linalg.solve(M.T @ M + lam * np.eye(15), M.T @ b)
    Rt_inv = lambda v: np.linalg.solve(R.T, v)
    target = tol * np.linalg.norm(Rt_inv(M.T @ b))
    op = _CountingDense(M)
    cold = lsqr_solve(op, b, lam=lam, right_precond=R, tol=tol)
    x0 = x_ref + 0.1 * _rng(8).standard_normal(15)
    op.calls = 0
    warm = lsqr_solve(op, b, lam=lam, right_precond=R, tol=tol, x0=x0,
                      r0=b - M @ x0, atb=M.T @ b)
    # the start costs no apply of its own
    assert op.calls == 2 * warm.n_iter + 1
    assert warm.converged and cold.converged
    for res in (cold, warm):
        grad = Rt_inv(M.T @ (b - M @ res.x) - lam * res.x)
        assert np.linalg.norm(grad) <= 1.01 * target
    # both meet the same target, so they agree to its reach: tol times the
    # squared condition number of the preconditioned augmented matrix
    aug = np.vstack([M, np.sqrt(lam) * np.eye(15)]) @ np.linalg.inv(R)
    reach = np.linalg.cond(aug) ** 2 * tol
    assert np.linalg.norm(warm.x - cold.x) <= reach * np.linalg.norm(x_ref)
    # and without r0 and atb, one apply each
    op.calls = 0
    again = lsqr_solve(op, b, lam=lam, right_precond=R, tol=tol, x0=x0)
    assert op.calls == 2 * again.n_iter + 3
    np.testing.assert_allclose(again.x, warm.x, rtol=1e-12)


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


def test_gmres_reads_A_x_from_U_H():
    # A x = U H y at every iterate, also at a breakdown: the identity breaks
    # down at the first step
    rng = _rng(13)
    b = rng.standard_normal(15)
    for op in (DenseOperator(rng.standard_normal((15, 15))),
               IdentityOperator(15)):
        pairs = []
        res = gmres_solve(op, b, tol=0.0, maxit=10,
                          callback=lambda x, Ax: pairs.append((x, Ax)))
        assert len(pairs) == res.n_iter and res.Ax is pairs[-1][1]
        for x, Ax in pairs:
            true = op.apply(x)
            assert np.linalg.norm(Ax - true) <= 1e-13 * np.linalg.norm(true)
    assert res.n_iter == 1 and res.converged


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



@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_factorization_refuses_a_non_finite_preconditioner(bad):
    # NaN <= 0 and inf <= 0 are both False: a sign test alone let them pass,
    # and a NaN z then stored a zero u with no breakdown
    n = 6
    fact = FlexibleFactorization("golub_kahan", DenseOperator(np.eye(n)),
                                 np.ones(n))
    w_inv = np.ones(n)
    w_inv[2] = bad
    with pytest.raises(ValueError, match="finite and positive"):
        fact.expand(w_inv)
    assert fact.k == 0 and fact.U.shape == (n, 1) and not fact.breakdown


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_row_basis_refuses_a_non_finite_vector(bad):
    rng = _rng(15)
    qr = RowBasis(5)
    qr.append(rng.standard_normal(5))
    v = rng.standard_normal(5)
    v[3] = bad
    with pytest.raises(ValueError, match="non-finite"):
        qr.append(v)
    assert qr.k == 1
    # an operator that returns NaN stops the expansion, Z and U unchanged
    M = np.eye(5)
    M[0, 0] = bad
    fact = FlexibleFactorization("arnoldi", DenseOperator(M), np.ones(5))
    with pytest.raises(ValueError, match="non-finite"):
        fact.expand(np.ones(5))
    assert fact.k == 0 and fact.U.shape == (5, 1) and not fact.breakdown


@pytest.mark.parametrize("kind", ["arnoldi", "golub_kahan"])
def test_bases_sized_from_k_max_do_not_grow(kind):
    # with a k_max hint every buffer is allocated once, and the factorization
    # is bitwise the unsized one; past the hint the buffers still double
    rng = _rng(16)
    n, steps = 30, 2 * RowBasis.INITIAL_ROWS + 3
    M = rng.standard_normal((n, n))
    b = rng.standard_normal(n)
    weights = [rng.random(n) + 0.2 for _ in range(steps + 2)]
    sized = FlexibleFactorization(kind, DenseOperator(M), b, ell=4,
                                  k_max=steps)
    plain = FlexibleFactorization(kind, DenseOperator(M), b, ell=4)
    sized.expand(weights[0])
    first = (sized.U, sized.V, sized.Z, sized.H)
    for w_inv in weights[1:steps]:
        sized.expand(w_inv)
    for early, now in zip(first, (sized.U, sized.V, sized.Z, sized.H)):
        assert np.shares_memory(early, now)
    for w_inv in weights[:steps]:
        plain.expand(w_inv)
    for got, want in zip((sized.U, sized.V, sized.Z, sized.H),
                         (plain.U, plain.V, plain.Z, plain.H)):
        assert got.tobytes() == want.tobytes()
    for w_inv in weights[steps:]:
        sized.expand(w_inv)
    assert sized.k == steps + 2 and not np.shares_memory(first[2], sized.Z)
    assert RowBasis(4, 0)._rows.shape == (1, 4)


def _list_cgs2(q, basis, window):
    """Reference: classical Gram-Schmidt with one reorthogonalization pass of
    q against the last ``window`` vectors of the list ``basis``, stacked as
    rows; the coefficients per vector."""
    lo = 0 if window is None else max(0, len(basis) - window)
    coeffs = np.zeros(len(basis))
    rows = np.array(basis[lo:]).reshape(-1, q.size)
    for _ in range(2):
        h = rows @ q
        coeffs[lo:] += h
        q = q - h @ rows
    return q, coeffs


def _list_factorization(kind, M, b, ell, weights):
    """Reference flexible factorization on Python lists of vectors: U, V, Z
    and H stacked from the recurrence the row buffers must reproduce."""
    us, vs, zs, hcols = [b / float(np.linalg.norm(b))], [], [], []
    for w_inv in weights:
        v = us[-1]
        if kind == "golub_kahan":
            vhat, _ = _list_cgs2(M.T @ v, vs, ell)
            v = vhat / np.linalg.norm(vhat)
            vs.append(v)
        z = w_inv * v
        q, coeffs = _list_cgs2(M @ z, us, ell)
        hcols.append(np.append(coeffs, np.linalg.norm(q)))
        zs.append(z)
        us.append(q / hcols[-1][-1])
    H = np.zeros((len(us), len(zs)))
    for j, col in enumerate(hcols):
        H[: col.size, j] = col
    V = us if kind == "arnoldi" else vs
    return [np.stack(a, axis=1) for a in (us, V, zs)] + [H]


@pytest.mark.parametrize("kind", ["arnoldi", "golub_kahan"])
@pytest.mark.parametrize("ell", [None, 2])
def test_factorization_is_bitwise_the_list_recurrence(kind, ell):
    rng = _rng(11)
    m, n = (30, 30) if kind == "arnoldi" else (40, 30)
    M = rng.standard_normal((m, n))
    b = rng.standard_normal(m)
    steps = 2 * RowBasis.INITIAL_ROWS + 3  # the buffers grow twice
    weights = [rng.random(n) + 0.2 for _ in range(steps)]
    fact = FlexibleFactorization(kind, DenseOperator(M), b, ell=ell)
    for w_inv in weights:
        fact.expand(w_inv)
    assert not fact.breakdown and fact.k == steps
    ref = _list_factorization(kind, M, b, ell, weights)
    for name, got, want in zip("UVZH", (fact.U, fact.V, fact.Z, fact.H), ref):
        assert got.shape == want.shape, name
        assert np.ascontiguousarray(got).tobytes() == want.tobytes(), name


@pytest.mark.parametrize("window", [None, 3])
def test_row_basis_cgs2_is_orthogonal_on_an_ill_conditioned_input(window):
    # cond(M) = 1e8 with a zero column: Q is orthonormal to rounding (within
    # the window when truncated), Q R = M, and the zero column stores zeros
    rng = _rng(14)
    m, n = 300, 40
    U = np.linalg.qr(rng.standard_normal((m, n)))[0]
    V = np.linalg.qr(rng.standard_normal((n, n)))[0]
    M = U @ np.diag(np.geomspace(1.0, 1e-8, n)) @ V.T
    M[:, 17] = 0.0
    qr = RowBasis(m)
    for j in range(n):
        qr.append(M[:, j], window)
    Q, R = qr.Q, qr.R
    assert not np.any(Q[:, 17]) and not np.any(R[:, 17])
    live = np.ones(n)
    live[17] = 0.0
    gap = Q.T @ Q - np.diag(live)
    if window is not None:
        i, j = np.indices(gap.shape)
        gap[np.abs(i - j) > window] = 0.0
    assert np.linalg.norm(gap, 2) <= 1e-14
    assert np.linalg.norm(Q @ R - M, 2) <= 1e-14 * np.linalg.norm(M, 2)


def test_only_golub_kahan_allocates_a_v_buffer():
    # Arnoldi's V is U, so it allocates the n-row buffers of U and Z only:
    # 2 k_max + 1 rows of n floats, not 3 k_max + 1
    n, k_max = 20_000, 20
    A, b = IdentityOperator(n), np.ones(n)
    rows = {}
    for kind in ("arnoldi", "golub_kahan"):
        tracemalloc.start()
        fact = FlexibleFactorization(kind, A, b, k_max=k_max)
        rows[kind] = tracemalloc.get_traced_memory()[0] / (8 * n)
        tracemalloc.stop()
        del fact
    assert 2 * k_max + 1 <= rows["arnoldi"] < 2 * k_max + 2
    assert 3 * k_max + 1 <= rows["golub_kahan"] < 3 * k_max + 2


def test_row_basis_column_qr_with_a_dependent_column():
    rng = _rng(12)
    M = rng.standard_normal((30, 12))
    M[:, 0] = 0.0
    M[0, 0] = 3.0
    M[:, 5] = 2.0 * M[:, 0]  # exactly in span(q_1): rho = 0
    qr = RowBasis(30)
    for j in range(12):
        col = qr.append(M[:, j])
        np.testing.assert_array_equal(col, qr.R[: j + 1, j])
    Q, R = qr.Q, qr.R
    assert Q.shape == (30, 12) and R.shape == (12, 12)
    assert R[5, 5] == 0.0 and not np.any(Q[:, 5])
    np.testing.assert_array_equal(np.tril(R, -1), 0.0)
    np.testing.assert_allclose(Q @ R, M, rtol=0, atol=1e-12)
    live = np.diag(R) > 0
    np.testing.assert_allclose(Q.T @ Q, np.diag(live.astype(float)),
                               rtol=0, atol=1e-12)


def test_bases_are_views_that_survive_growth():
    rng = _rng(13)
    n = 40
    M = rng.standard_normal((n, n))
    fact = FlexibleFactorization("golub_kahan", DenseOperator(M),
                                 rng.standard_normal(n), ell=4)
    for _ in range(RowBasis.INITIAL_ROWS - 1):
        fact.expand(np.ones(n))
    Z_early, U_early, H_early = fact.Z, fact.U, fact.H
    Z_copy, U_copy, H_copy = Z_early.copy(), U_early.copy(), H_early.copy()
    assert np.shares_memory(fact.Z, fact.Z)
    assert np.shares_memory(fact.U, U_early)
    qr = RowBasis(n)
    qr.append(rng.standard_normal(n))
    assert np.shares_memory(qr.Q, qr.Q) and np.shares_memory(qr.R, qr.R)
    for _ in range(2 * RowBasis.INITIAL_ROWS):  # the buffers double
        fact.expand(rng.random(n) + 0.5)
    assert not np.shares_memory(fact.Z, Z_early)
    for early, copy in ((Z_early, Z_copy), (U_early, U_copy),
                        (H_early, H_copy)):
        np.testing.assert_array_equal(early, copy)
    k = Z_copy.shape[1]
    np.testing.assert_array_equal(fact.Z[:, :k], Z_copy)
    np.testing.assert_array_equal(fact.U[:, : k + 1], U_copy)
    np.testing.assert_array_equal(fact.H[: k + 1, :k], H_copy)
