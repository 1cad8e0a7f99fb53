import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import randkrylov.regparam as regparam
from randkrylov.flex import (
    ProjectedProblem,
    _BasisGram,
    _weighted_r,
    solve_projected_tikhonov,
)
from randkrylov.krylov import FlexibleFactorization
from randkrylov.problems import add_noise, gen_tomo
from randkrylov.regparam import (
    LambdaPolicy,
    _filters,
    _grid_argmin,
    _log_grid,
    _wgcv_value,
    dp_select,
    optimal_select,
    projected_pair,
    select_lambda,
    svd_pair,
)
from randkrylov.weights import WeightSpec, compute_weights


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


def test_dp_returns_the_jump_of_a_step_map():
    # a residual map that jumps across the target at lam*: the root is the
    # jump, to the bracket's resolution
    for jump in (1e-9, 3.7, 2.5e6):
        step = lambda lam, jump=jump: 2.0 if lam >= jump else 0.5
        lam = dp_select(step, 1.0)
        assert abs(lam - jump) <= 1e-13 * jump, jump


def test_projected_pair_with_a_singular_r2_raises():
    R1 = np.triu(_rng(1).standard_normal((3, 3))) + 2 * np.eye(3)
    R2 = np.diag([1.0, 0.0, 1.0])
    with pytest.raises(np.linalg.LinAlgError):
        projected_pair(R1, np.ones(3), 0.0, R2)


def _dense_wgcv_oracle(R1, R2, beta, beta_perp, lam, omega):
    # [DERIVED] direct influence-matrix evaluation of the weighted GCV
    # function on the (k+1)-row projected problem [R1; 0] y ~ [beta; beta_perp]
    k = R1.shape[1]
    A = np.vstack([R1, np.zeros((1, k))])
    K = A.T @ A + lam * (R2.T @ R2)
    H = A @ np.linalg.solve(K, A.T)
    r = (np.eye(k + 1) - H) @ np.append(beta, beta_perp)
    den = k + 1 - omega * np.trace(H)
    return (k + 1) * float(r @ r) / den**2


@pytest.mark.parametrize("lam", [1e-4, 1e-2, 1.0, 30.0])
def test_wgcv_value_matches_dense_oracle(lam):
    rng = _rng(2)
    k = 5
    R1 = np.triu(rng.standard_normal((k, k))) + 2 * np.eye(k)
    R2 = np.triu(rng.standard_normal((k, k))) + 2 * np.eye(k)
    beta = rng.standard_normal(k)
    for beta_perp in (0.0, 0.7):
        pair = projected_pair(R1, beta, beta_perp, R2)
        c, beta_t = pair.c, pair.beta_t
        for omega in (1.0, 0.6):
            got = _wgcv_value(lam, c, beta_t, beta_perp, omega)
            ref = _dense_wgcv_oracle(R1, R2, beta, beta_perp, lam, omega)
            np.testing.assert_allclose(got, ref, rtol=1e-10)
        # the whole grid in one call gives the same values
        grid = np.geomspace(1e-4, 30.0, 7)
        np.testing.assert_allclose(
            _wgcv_value(grid, c, beta_t, beta_perp, 0.6),
            [_wgcv_value(g, c, beta_t, beta_perp, 0.6) for g in grid],
            rtol=1e-14)


def test_wgcv_default_omega():
    # omega defaults to (k+1)/s exactly
    rng = _rng(3)
    k, s_rows = 4, 40
    R1 = np.triu(rng.standard_normal((k, k))) + 2 * np.eye(k)
    pair = projected_pair(R1, rng.standard_normal(k), 0.0, np.eye(k))
    lam_default = select_lambda(LambdaPolicy(kind="wgcv"), pair, 1.0,
                                sketch_rows=s_rows)
    lam_explicit, _ = _grid_argmin(
        lambda lam: _wgcv_value(lam, pair.c, pair.beta_t,
                                pair.beta_perp, (k + 1) / s_rows),
        pair.smax_sq)
    assert lam_default == lam_explicit


def test_wgcv_select_near_brute_force():
    rng = _rng(4)
    k = 6
    R1 = np.triu(rng.standard_normal((k, k))) + 1.5 * np.eye(k)
    beta = rng.standard_normal(k)
    pair = projected_pair(R1, beta, 0.3, np.eye(k))
    lam = select_lambda(LambdaPolicy(kind="gcv"), pair, 1.0, sketch_rows=60)
    c, beta_t = pair.c, pair.beta_t
    grid = np.geomspace(1e-10, 1e6, 4000)
    vals = [_wgcv_value(g, c, beta_t, 0.3, 1.0) for g in grid]
    best = min(vals)
    got = _wgcv_value(lam, c, beta_t, 0.3, 1.0)
    assert got <= best * (1.0 + 1e-4)


def test_gcv_full_near_brute_force():
    rng = _rng(5)
    M = rng.standard_normal((40, 10)) @ np.diag(np.geomspace(1, 1e-3, 10))
    x = rng.standard_normal(10)
    b = M @ x + 0.01 * rng.standard_normal(40)
    lam = select_lambda(LambdaPolicy(kind="gcv"), svd_pair(M, b), 1.0)
    U, sv, _ = np.linalg.svd(M, full_matrices=False)
    beta = U.T @ b
    perp2 = float(np.sum((b - U @ beta) ** 2))

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


@settings(max_examples=60, deadline=None)
@given(st.floats(allow_nan=True, allow_infinity=True),
       st.sampled_from(["lam", "nl", "tau_lambda", "tau"]))
def test_parameters_reject_non_finite_values(value, field):
    # NaN or inf never reaches a solver: the specs refuse it with ValueError
    make = (lambda v: WeightSpec(tau=v)) if field == "tau" else (
        lambda v: LambdaPolicy(kind="fixed", **{field: v}))
    valid = np.isfinite(value) and (value > 0.0 if field == "tau"
                                    else field == "tau_lambda" or value >= 0.0)
    if valid:
        make(value)
    else:
        with pytest.raises(ValueError):
            make(value)


def _ill_posed_pair(seed, k=8):
    # projected pair with decaying R1, a smoothing R2, a solution meeting the
    # discrete Picard condition, and noise of known norm
    rng = _rng(seed)
    R1 = np.triu(rng.standard_normal((k, k)), 1) * 0.3 + np.diag(
        np.geomspace(1.0, 1e-4, k))
    R2 = np.triu(rng.standard_normal((k, k)), 1) * 0.2 + np.eye(k)
    y_true = np.linalg.solve(R2, np.geomspace(1.0, 1e-3, k)
                             * rng.standard_normal(k))
    noise = 1e-3 * rng.standard_normal(k)
    beta_perp = 1e-3
    return R1, R1 @ y_true + noise, beta_perp, R2, y_true, float(
        np.sqrt(noise @ noise + beta_perp**2))


def _stacked_qr_select(policy, R1, beta, beta_perp, R2, b_norm, y_true):
    # the previous per-lambda rule: one stacked QR per lambda it tries
    pp = ProjectedProblem(R1, beta, beta_perp, R2, R1.shape[1])
    smax_sq = float(np.linalg.svd(R1, compute_uv=False)[0] ** 2)
    if policy.kind == "dp":
        def residual(lam):
            r = R1 @ solve_projected_tikhonov(pp, lam) - beta
            return float(np.sqrt(r @ r + beta_perp**2))

        target = policy.tau_lambda * policy.nl * b_norm
        return dp_select(residual, target, scale=smax_sq)
    return optimal_select(lambda lam: solve_projected_tikhonov(pp, lam),
                          y_true, scale=smax_sq)


@pytest.mark.parametrize("seed", range(4))
def test_select_lambda_matches_stacked_qr_rules(seed):
    R1, beta, beta_perp, R2, y_true, noise_norm = _ill_posed_pair(seed)
    pair = projected_pair(R1, beta, beta_perp, R2)
    b_norm = float(np.sqrt(beta @ beta + beta_perp**2))
    for policy in (LambdaPolicy(kind="dp", nl=noise_norm / b_norm),
                   LambdaPolicy(kind="optimal", x_true=y_true)):
        ref = _stacked_qr_select(policy, R1, beta, beta_perp, R2, b_norm,
                                 y_true)
        got = select_lambda(policy, pair, b_norm, (np.eye(y_true.size),
                                                   y_true))
        assert ref > 0.0
        assert abs(got - ref) <= 1e-8 * ref, policy.kind


def _dense_svd_select(policy, M, b, x_true):
    # the previous IRN rules: filter factors of a dense SVD of M
    U, sv, Vt = np.linalg.svd(M, full_matrices=False)
    beta = U.T @ b
    perp2 = float(np.sum((b - U @ beta) ** 2))
    if policy.kind == "dp":
        def residual(lam):
            filt = lam / (sv**2 + lam) if lam > 0 else np.where(sv > 0, 0.0,
                                                                1.0)
            return float(np.sqrt(np.sum((filt * beta) ** 2) + perp2))

        target = policy.tau_lambda * policy.nl * float(np.linalg.norm(b))
        return dp_select(residual, target, scale=float(sv[0] ** 2))
    if policy.kind == "gcv":
        def gfun(lam):
            filt = lam / (sv**2 + lam)
            tr = float(np.sum(filt)) + (M.shape[0] - sv.size)
            return (float(np.sum((filt * beta) ** 2)) + perp2) / tr**2

        return _grid_argmin(np.vectorize(gfun), float(sv[0] ** 2))[0]
    # optimal, anchored at sigma_max^2 like every other rule (it was 1.0)
    return optimal_select(lambda lam: Vt.T @ (sv / (sv**2 + lam) * beta),
                          x_true, scale=float(sv[0] ** 2))


@pytest.mark.parametrize("seed", range(3))
def test_select_lambda_matches_dense_svd_rules(seed):
    rng = _rng(20 + seed)
    M = rng.standard_normal((60, 15)) @ np.diag(np.geomspace(1.0, 1e-3, 15))
    x_true = rng.standard_normal(15)
    b = M @ x_true + 0.01 * rng.standard_normal(60)
    pair = svd_pair(M, b)
    for policy in (LambdaPolicy(kind="dp", nl=0.01 * 60**0.5
                                / np.linalg.norm(b)),
                   LambdaPolicy(kind="gcv"),
                   LambdaPolicy(kind="optimal", x_true=x_true)):
        ref = _dense_svd_select(policy, M, b, x_true)
        got = select_lambda(policy, pair, float(np.linalg.norm(b)),
                            (np.eye(x_true.size), x_true))
        assert ref > 0.0
        assert abs(got - ref) <= 1e-10 * ref, policy.kind


def test_dp_residual_does_not_keep_the_pair_alive():
    # brentq keeps the dp residual in a reference cycle, so whatever the
    # residual captures outlives the call until the cyclic collector runs
    rng = _rng(9)
    M = rng.standard_normal((50, 20)) @ np.diag(np.geomspace(1.0, 1e-3, 20))
    b = M @ rng.standard_normal(20) + 0.01 * rng.standard_normal(50)
    pair = svd_pair(M, b)
    coef = weakref.ref(pair.coef)
    policy = LambdaPolicy(kind="dp", nl=0.02 * 50**0.5 / np.linalg.norm(b))
    gc.collect()
    gc.disable()
    try:
        lam = select_lambda(policy, pair, float(np.linalg.norm(b)))
        del pair
        alive = coef() is not None
    finally:
        gc.enable()
    assert 0.0 < lam < 1e12 * float(np.linalg.svd(M, compute_uv=False)[0]**2)
    assert not alive


def _tomo_flexible_steps(k_max=30, every=10):
    # exp3's tomography problem on a reweighted flexible Golub-Kahan basis
    # (ell = 4), each step solved at the oracle's lambda; yields every
    # ``every``-th (Zbar, unsketched projected problem, its spectral pair)
    inst = add_noise(gen_tomo(64, n_angles=18, seed=31), 0.01, 32)
    A, b, x_true = inst.A, inst.b, inst.x_true
    policy = LambdaPolicy(kind="optimal", x_true=x_true)
    fact = FlexibleFactorization("golub_kahan", A, b, ell=4)
    fit = _BasisGram(fact, k_max + 1)
    x = np.zeros(A.ncols)
    for k in range(1, k_max + 1):
        w = compute_weights(x, WeightSpec(p=1.0, tau=1e-10))
        assert fact.expand(1.0 / w) is not None and not fact.breakdown
        fit.add()
        Z = fact.Z
        pp = fit.pair(_weighted_r(w, Z))
        pair = projected_pair(pp.R1, pp.beta, pp.beta_perp, pp.R2)
        lam = select_lambda(policy, pair, 1.0, (Z.T @ Z, Z.T @ x_true))
        x = Z @ solve_projected_tikhonov(pp, lam)
        if k % every == 0:
            yield Z, pp, pair, x_true


def _tomo_flexible_pairs():
    for Z, _pp, pair, x_true in _tomo_flexible_steps():
        yield Z, pair, x_true


def test_standard_form_coefficients_solve_the_projected_problem():
    # on exp3's flexible pairs, where cond(R2) reaches 5e5, y = R2^{-1} V
    # filtered matches the stacked-QR solve at every point of the search grid
    for Z, pp, pair, _x_true in _tomo_flexible_steps():
        for lam in _log_grid(pair.smax_sq):
            y = pair.coef @ (_filters(lam, pair.c)[1] * pair.beta_t)
            ref = solve_projected_tikhonov(pp, lam)
            assert np.linalg.norm(y - ref) <= 1e-10 * np.linalg.norm(ref), (
                Z.shape[1], lam)




def test_coefficient_space_oracle_matches_the_direct_error(monkeypatch):
    # |x - x_true| from (Zbar^T Zbar, Zbar^T x_true) equals the direct norm
    # at every grid point, and picks the direct optimal_select's lambda
    # within the golden bracket
    real, funs = regparam._grid_argmin, []

    def spy(fun, scale):
        funs.append(fun)
        return real(fun, scale)

    monkeypatch.setattr(regparam, "_grid_argmin", spy)
    for Z, pair, x_true in _tomo_flexible_pairs():
        c, beta_t = pair.c, pair.beta_t
        x_of = lambda lam: Z @ (pair.coef @ (_filters(lam, c)[1] * beta_t))
        funs.clear()
        lam = select_lambda(LambdaPolicy(kind="optimal", x_true=x_true), pair,
                            1.0, (Z.T @ Z, Z.T @ x_true))
        grid = _log_grid(pair.smax_sq)
        direct = [np.linalg.norm(x_of(g) - x_true) for g in grid]
        np.testing.assert_allclose(funs[0](grid), direct, rtol=1e-12)
        ref = optimal_select(x_of, x_true, scale=pair.smax_sq)
        assert abs(np.log(lam / ref)) <= 1e-3, Z.shape[1]
