import numpy as np
import pytest

from randkrylov.flex import ProjectedProblem
from randkrylov.regparam import (
    LambdaPolicy,
    _wgcv_value,
    dp_select,
    gcv_full_select,
    gsvd_small,
    optimal_select,
    wgcv_select,
)


def _rng(seed=0):
    return np.random.Generator(np.random.Philox(seed))


def test_lambda_policy_validation():
    with pytest.raises(ValueError):
        LambdaPolicy(kind="bogus")
    with pytest.raises(ValueError):
        LambdaPolicy(kind="dp", tau_lambda=1.0)
    with pytest.raises(ValueError):
        LambdaPolicy(kind="optimal")
    with pytest.raises(ValueError):
        LambdaPolicy(kind="fixed", lam=-1e-3)
    with pytest.raises(ValueError):
        LambdaPolicy(kind="fixed", nl=-0.01)
    with pytest.raises(ValueError):
        LambdaPolicy(kind="dp", nl=0.0)
    LambdaPolicy(kind="fixed", lam=0.0)
    LambdaPolicy(kind="dp", nl=0.01)
    LambdaPolicy(kind="optimal", x_true=np.zeros(3))


def test_dp_root_analytic():
    # [DERIVED] residual(lam) = sqrt(lam / (lam + 1)) has the root
    # lam* = t^2 / (1 - t^2) for target t in (0, 1)
    resid = lambda lam: np.sqrt(lam / (lam + 1.0))
    for t in (0.1, 0.5, 0.9):
        lam = dp_select(resid, t)
        expect = t**2 / (1.0 - t**2)
        assert abs(lam - expect) <= 1e-6 * expect


def test_dp_zero_branch_and_saturation():
    resid = lambda lam: 2.0 + lam
    assert dp_select(resid, 1.5) == 0.0  # already above target at lam = 0
    bounded = lambda lam: 0.5 * lam / (lam + 1.0)
    assert dp_select(bounded, 0.9, scale=1.0) == 1e12  # target unreachable
    with pytest.raises(ValueError):
        dp_select(resid, 0.0)


def test_gsvd_reconstruction():
    rng = _rng(1)
    k = 6
    R1 = rng.standard_normal((k, k))
    R2 = rng.standard_normal((k, k))
    U, V, Xt, c, s = gsvd_small(R1, R2)
    np.testing.assert_allclose(U @ (c[:, None] * Xt), R1, atol=1e-10)
    np.testing.assert_allclose(V @ (s[:, None] * Xt), R2, atol=1e-10)
    np.testing.assert_allclose(c**2 + s**2, np.ones(k), atol=1e-12)
    np.testing.assert_allclose(U.T @ U, np.eye(k), atol=1e-12)


def test_gsvd_rank_deficient_raises():
    with pytest.raises(np.linalg.LinAlgError):
        gsvd_small(np.zeros((3, 3)), np.zeros((3, 3)))


def _dense_wgcv_oracle(R1, R2, beta, lam, k, omega):
    # [DERIVED] direct influence-matrix evaluation of the weighted GCV
    # function on the projected pair
    A = R1
    K = A.T @ A + lam * (R2.T @ R2)
    H = A @ np.linalg.solve(K, A.T)
    r = (np.eye(k) - H) @ beta
    den = k - omega * np.trace(H)
    return k * float(r @ r) / den**2


@pytest.mark.parametrize("lam", [1e-4, 1e-2, 1.0, 30.0])
def test_wgcv_value_matches_dense_oracle(lam):
    rng = _rng(2)
    k = 5
    R1 = np.triu(rng.standard_normal((k, k))) + 2 * np.eye(k)
    R2 = np.triu(rng.standard_normal((k, k))) + 2 * np.eye(k)
    beta = rng.standard_normal(k)
    for omega in (1.0, 0.6):
        from randkrylov.regparam import _projected_gcv_terms

        pp = ProjectedProblem(R1, beta, 0.0, R2, k)
        c, s, beta_t = _projected_gcv_terms(pp)
        got = _wgcv_value(lam, c, s, beta_t, k, omega)
        ref = _dense_wgcv_oracle(R1, R2, beta, lam, k, omega)
        np.testing.assert_allclose(got, ref, rtol=1e-10)


def test_wgcv_default_omega():
    # omega defaults to (k+1)/s exactly
    rng = _rng(3)
    k, s_rows = 4, 40
    R1 = np.triu(rng.standard_normal((k, k))) + 2 * np.eye(k)
    pp = ProjectedProblem(R1, rng.standard_normal(k), 0.0, np.eye(k), k)
    lam_default = wgcv_select(pp, s_rows)
    lam_explicit = wgcv_select(pp, s_rows, omega=(k + 1) / s_rows)
    assert lam_default == lam_explicit


def test_wgcv_select_near_brute_force():
    rng = _rng(4)
    k = 6
    R1 = np.triu(rng.standard_normal((k, k))) + 1.5 * np.eye(k)
    beta = rng.standard_normal(k)
    pp = ProjectedProblem(R1, beta, 0.3, np.eye(k), k)
    lam = wgcv_select(pp, 60, omega=1.0)
    from randkrylov.regparam import _projected_gcv_terms

    c, s, beta_t = _projected_gcv_terms(pp)
    grid = np.geomspace(1e-10, 1e6, 4000)
    vals = [_wgcv_value(g, c, s, beta_t, k, 1.0) for g in grid]
    best = min(vals)
    got = _wgcv_value(lam, c, s, beta_t, k, 1.0)
    assert got <= best * (1.0 + 1e-4)


def test_gcv_full_near_brute_force():
    rng = _rng(5)
    M = rng.standard_normal((40, 10)) @ np.diag(np.geomspace(1, 1e-3, 10))
    x = rng.standard_normal(10)
    b = M @ x + 0.01 * rng.standard_normal(40)
    lam = gcv_full_select(M, b)
    U, sv, _ = np.linalg.svd(M, full_matrices=False)
    beta = U.T @ b
    perp2 = b @ b - beta @ beta

    def g(l):
        filt = l / (sv**2 + l)
        return (np.sum((filt * beta) ** 2) + perp2) / (
            np.sum(filt) + (40 - 10)) ** 2

    grid = np.geomspace(1e-14, 1e4, 4000)
    assert g(lam) <= min(g(l) for l in grid) * (1.0 + 1e-4)


def test_optimal_select_quadratic():
    # error curve |x(lam) - x_true| with a known interior minimum
    x_true = np.array([1.0])
    sol = lambda lam: np.array([1.0 + (np.log10(lam) + 2.0) ** 2])
    lam = optimal_select(sol, x_true, scale=1.0)
    assert abs(np.log10(lam) + 2.0) < 1e-2
