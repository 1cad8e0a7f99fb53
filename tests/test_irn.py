
import numpy as np
import pytest
from test_flex import _MatrixFreeOnly

import randkrylov.irn as irn
from randkrylov.irn import (
    IRNConfig,
    _ReducedSystem,
    _reduce_system,
    _reweighted_pair,
    _select_lambda,
    build_partly_exact_preconditioner,
    irn_s2p_solve,
    irn_solve,
)
from randkrylov.operators import DenseOperator
from randkrylov.problems import add_noise, gen_subset_selection
from randkrylov.regparam import LambdaPolicy, select_lambda, svd_pair
from randkrylov.sketching import (
    apply_sketch,
    build_leverage_sketch,
    estimate_leverage_scores,
    identity_sketch,
)
from randkrylov.weights import WeightSpec


def _rng(seed=0):
    return np.random.Generator(np.random.Philox(seed))


def _instance(m=60, n=20, seed=1, nl=0.02):
    inst = gen_subset_selection(m, n, bern_p=0.3, seed=seed)
    return add_noise(inst, nl, seed + 100)


def test_irn_p2_collapses_to_tikhonov(iterates):
    inst = _instance()
    lam = 0.8
    cfg = IRNConfig(weight=WeightSpec(p=2.0, tau=1e-10), outer_max=3,
                    inner_tol=1e-14,
                    lambda_policy=LambdaPolicy(kind="fixed", lam=lam))
    irn_solve(inst.A, inst.b, cfg, inst.x_true)
    M = inst.A.matrix
    ref = np.linalg.solve(M.T @ M + lam * np.eye(M.shape[1]), M.T @ inst.b)
    [xs] = iterates
    for x in xs:
        np.testing.assert_allclose(x, ref, rtol=1e-8, atol=1e-10)


def test_irn_objective_monotone_fixed_lambda():
    inst = _instance(m=80, n=30)
    cfg = IRNConfig(weight=WeightSpec(p=1.0, tau=1e-6), outer_max=12,
                    inner_tol=1e-12,
                    lambda_policy=LambdaPolicy(kind="fixed", lam=1.0))
    res = irn_solve(inst.A, inst.b, cfg, inst.x_true)
    F = res.column("objective_mm")
    slack = 1e-8 * F[0]
    assert all(b <= a + slack for a, b in zip(F, F[1:]))


def test_irn_trace_invariants(iterates):
    inst = _instance()
    cfg = IRNConfig(weight=WeightSpec(p=1.0, tau=1e-4), outer_max=4,
                    lambda_policy=LambdaPolicy(kind="fixed", lam=0.5))
    res = irn_solve(inst.A, inst.b, cfg, inst.x_true)
    assert res.column("outer") == [1, 2, 3, 4]
    inner = res.column("cum_inner")
    assert all(b >= a for a, b in zip(inner, inner[1:]))
    assert np.all(np.isfinite(res.column("rel_error")))
    assert res.x is iterates[0][-1]


def test_preconditioner_factor_identity():
    # [TRIVIAL] R^T R = W^{-1} C0 W^{-1} + lam I
    rng = _rng(2)
    Y = rng.standard_normal((50, 8))
    C0 = Y.T @ Y
    w = rng.random(8) + 0.5
    lam = 0.3
    R = build_partly_exact_preconditioner(C0, w, lam)
    expect = C0 * np.outer(1 / w, 1 / w) + lam * np.eye(8)
    np.testing.assert_allclose(R.T @ R, expect, rtol=1e-12, atol=1e-12)
    assert np.max(np.abs(np.tril(R, -1))) == 0.0
    with pytest.raises(ValueError):
        build_partly_exact_preconditioner(C0, w, 0.0)


def test_preconditioner_drives_condition_down():
    rng = _rng(3)
    M = rng.standard_normal((400, 30)) * np.geomspace(1, 1e-3, 30)[None, :]
    lam = 1e-2
    p = estimate_leverage_scores(M)
    S = build_leverage_sketch(p, 120, seed=5)
    Y = apply_sketch(S, M)
    R = build_partly_exact_preconditioner(Y.T @ Y, np.ones(30), lam)
    stacked = np.vstack([M, np.sqrt(lam) * np.eye(30)])
    cond = np.linalg.cond(stacked @ np.linalg.inv(R))
    assert cond < 10.0
    assert cond < np.linalg.cond(stacked)


def test_irn_s2p_matches_plain_irn(iterates):
    inst = _instance(m=100, n=25)
    cfg = IRNConfig(weight=WeightSpec(p=1.0, tau=1e-4), outer_max=5,
                    inner_tol=1e-12,
                    lambda_policy=LambdaPolicy(kind="fixed", lam=1.0))
    irn_solve(inst.A, inst.b, cfg, inst.x_true)
    S = identity_sketch(100)
    irn_s2p_solve(inst.A, inst.b, cfg, S, inst.x_true)
    plain_xs, prec_xs = iterates
    for xp, xs in zip(plain_xs, prec_xs):
        np.testing.assert_allclose(xs, xp, rtol=1e-6, atol=1e-8)


def test_irn_s2p_saves_inner_iterations():
    inst = _instance(m=150, n=40)
    cfg = IRNConfig(weight=WeightSpec(p=1.0, tau=1e-4), outer_max=6,
                    inner_tol=1e-10,
                    lambda_policy=LambdaPolicy(kind="fixed", lam=1.0))
    plain = irn_solve(inst.A, inst.b, cfg, inst.x_true)
    p = estimate_leverage_scores(inst.A.matrix)
    S = build_leverage_sketch(p, 160, seed=7)
    prec = irn_s2p_solve(inst.A, inst.b, cfg, S, inst.x_true)
    assert prec.trace[-1].cum_inner < plain.trace[-1].cum_inner


def test_irn_dp_policy_meets_discrepancy():
    inst = _instance(m=120, n=30, nl=0.05)
    pol = LambdaPolicy(kind="dp", nl=0.05, tau_lambda=1.01)
    cfg = IRNConfig(weight=WeightSpec(p=1.0, tau=1e-4), outer_max=5,
                    inner_tol=1e-12, lambda_policy=pol)
    res = irn_solve(inst.A, inst.b, cfg, inst.x_true)
    r = inst.A.apply(res.x) - inst.b
    target = 1.01 * 0.05 * np.linalg.norm(inst.b)
    assert np.linalg.norm(r) <= 1.5 * target


def test_irn_optimal_policy_beats_fixed_guess():
    inst = _instance(m=120, n=30, nl=0.05)
    pol = LambdaPolicy(kind="optimal", x_true=inst.x_true)
    cfg = IRNConfig(weight=WeightSpec(p=1.0, tau=1e-4), outer_max=5,
                    inner_tol=1e-12, lambda_policy=pol)
    res = irn_solve(inst.A, inst.b, cfg, inst.x_true)
    bad = IRNConfig(weight=WeightSpec(p=1.0, tau=1e-4), outer_max=5,
                    inner_tol=1e-12,
                    lambda_policy=LambdaPolicy(kind="fixed", lam=1e3))
    res_bad = irn_solve(inst.A, inst.b, bad, inst.x_true)
    assert res.trace[-1].rel_error <= res_bad.trace[-1].rel_error


def test_irn_rejects_wgcv():
    with pytest.raises(ValueError):
        IRNConfig(lambda_policy=LambdaPolicy(kind="wgcv"))


def test_irn_config_validation():
    for bad in ({"outer_max": 0}, {"inner_max": 0}, {"inner_tol": 0.0},
                {"inner_tol": -1e-8}, {"inner_tol": float("nan")}):
        with pytest.raises(ValueError):
            IRNConfig(**bad)
    IRNConfig(inner_max=1, inner_tol=1e-12)


def _outside_range(pair, rtol=1e-10):
    """Norm of b outside the numerical range: beta_perp together with the
    coefficients along null directions (c ~ 0). For a rank-deficient matrix
    the split between the two depends on the factorization, while every
    rule reads only their sum of squares."""
    null = pair.c <= rtol * pair.c[0]
    return float(np.hypot(pair.beta_perp, np.linalg.norm(pair.beta_t[null])))


@pytest.mark.parametrize("shape", ["tall", "rank_deficient", "wide"])
def test_qr_reweighted_pair_matches_svd_pair(shape):
    rng = _rng(30)
    m, n = (10, 16) if shape == "wide" else (50, 12)
    M = rng.standard_normal((m, n)) @ np.diag(np.geomspace(1.0, 1e-3, n))
    if shape == "rank_deficient":
        M[:, 7] = M[:, 2]
    x_true = rng.standard_normal(n)
    b = M @ x_true + 0.05 * rng.standard_normal(m)
    b_norm = float(np.linalg.norm(b))
    system = _reduce_system(M, b)
    for trial in range(3):
        w_inv = rng.uniform(0.1, 10.0, n)
        got = _reweighted_pair(system, w_inv)
        ref = svd_pair(M * w_inv[None, :], b)
        assert got.m == ref.m == m and got.c.size == ref.c.size
        np.testing.assert_allclose(got.c, ref.c, rtol=1e-10,
                                   atol=1e-12 * ref.c[0])
        assert abs(_outside_range(got) - _outside_range(ref)) \
            <= 1e-12 * b_norm
        if shape != "rank_deficient":
            assert abs(got.beta_perp - ref.beta_perp) <= 1e-12 * b_norm
        for policy in (LambdaPolicy(kind="dp", nl=0.05 * m**0.5 / b_norm),
                       LambdaPolicy(kind="gcv"),
                       LambdaPolicy(kind="optimal", x_true=x_true)):
            lam = _select_lambda(policy, system, w_inv)
            lam_ref = select_lambda(policy, ref, b_norm,
                                    (np.diag(w_inv**2), w_inv * x_true))
            assert lam_ref > 0.0
            assert abs(lam - lam_ref) <= 1e-10 * lam_ref, (policy.kind, trial)


def test_irn_lambda_rules_need_no_dense_svd(monkeypatch):
    # dp and gcv read sigma and U^T Q^T b of R W^{-1} from one
    # bidiagonalization, never from a dense SVD
    def no_svd(*args, **kwargs):
        raise AssertionError("np.linalg.svd called")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    inst = _instance(m=100, n=25, nl=0.05)
    S = build_leverage_sketch(estimate_leverage_scores(inst.A.matrix), 80,
                              seed=3)
    for policy in (LambdaPolicy(kind="dp", nl=0.05), LambdaPolicy(kind="gcv")):
        cfg = IRNConfig(weight=WeightSpec(p=1.0, tau=1e-4), outer_max=3,
                        lambda_policy=policy)
        for res in (irn_solve(inst.A, inst.b, cfg, inst.x_true),
                    irn_s2p_solve(inst.A, inst.b, cfg, S, inst.x_true)):
            lams = np.array(res.column("lam"))
            assert lams.size == 3 and np.all(np.isfinite(lams)) \
                and np.all(lams > 0.0), policy.kind


def test_reweighted_pair_refuses_non_finite_weights_and_keeps_beta_perp():
    rng = _rng(31)
    M = rng.standard_normal((40, 12))
    b = rng.standard_normal(40)
    system = _reduce_system(M, b)
    w_inv = rng.uniform(0.1, 10.0, 12)
    assert _reweighted_pair(system, w_inv).beta_perp == system.beta_perp
    for bad in (np.nan, np.inf):
        w_bad = w_inv.copy()
        w_bad[5] = bad
        for policy in (LambdaPolicy(kind="dp", nl=0.05),
                       LambdaPolicy(kind="gcv"),
                       LambdaPolicy(kind="optimal", x_true=np.ones(12))):
            with pytest.raises(np.linalg.LinAlgError):
                _select_lambda(policy, system, w_bad)
        R_bad = system.R.copy()
        R_bad[2, 3] = bad
        with pytest.raises(np.linalg.LinAlgError):
            _reweighted_pair(_ReducedSystem(R_bad, system.qtb,
                                            system.beta_perp, system.m,
                                            system.b_norm), w_inv)


def _fixed(outer_max=6, **kwargs):
    return IRNConfig(weight=WeightSpec(p=1.0, tau=1e-4), outer_max=outer_max,
                     lambda_policy=LambdaPolicy(kind="fixed", lam=0.5),
                     **kwargs)


class _CountingDense(DenseOperator):
    """A dense operator, with its matrix, that counts its applies."""

    def __init__(self, M):
        super().__init__(M)
        self.applies = self.adjoints = 0

    def _apply(self, x):
        self.applies += 1
        return super()._apply(x)

    def _apply_adjoint(self, y):
        self.adjoints += 1
        return super()._apply_adjoint(y)

    def materialize(self):
        raise AssertionError("a dense operator was copied")


def test_dense_irn_applies_A_once_per_run():
    # the inner solves run on the n-by-n R W^{-1} with Q^T b, and each trace
    # row but the last reads its fit from it; A applies only to record the
    # last row, and its adjoint never
    inst = _instance(m=120, n=30)
    S = build_leverage_sketch(estimate_leverage_scores(inst.A.matrix), 90,
                              seed=3)
    runs = {"irn": lambda A: irn_solve(A, inst.b, _fixed(), inst.x_true),
            "irn_s2p": lambda A: irn_s2p_solve(A, inst.b, _fixed(), S,
                                               inst.x_true)}
    for name, run in runs.items():
        A = _CountingDense(inst.A.matrix)
        res = run(A)
        assert res.trace[-1].cum_inner > 2 * len(res.trace), name
        assert (A.applies, A.adjoints) == (1, 0), name


def test_reduced_inner_solves_match_the_full_operator():
    # a dense A runs its inner LSQR on (R W^{-1}, Q^T b), a matrix-free one
    # on (A W^{-1}, b); both have the same normal equations, so the two
    # solves agree to within what the inner tolerance leaves open: at 1e-12
    # they end within 3e-11 (x) and 2e-11 (objective) of each other
    cfg = _fixed(outer_max=8, inner_tol=1e-12)
    for inst in (_instance(m=120, n=30), _instance(m=90, n=30, seed=4)):
        dense = irn_solve(inst.A, inst.b, cfg, inst.x_true)
        free = irn_solve(_MatrixFreeOnly(inst.A.matrix), inst.b, cfg,
                         inst.x_true)
        assert len(dense.trace) == len(free.trace) == 8
        assert np.linalg.norm(dense.x - free.x) \
            <= 1e-8 * np.linalg.norm(free.x)
        np.testing.assert_allclose(dense.column("objective_mm"),
                                   free.column("objective_mm"), rtol=1e-9)
        inner_d, inner_f = (dense.column("cum_inner"),
                            free.column("cum_inner"))
        assert abs(inner_d[-1] - inner_f[-1]) <= 0.05 * inner_f[-1]


def test_reduced_and_full_inner_solves_flag_the_same_stagnation():
    # the reduced system leaves out beta_perp, which raises LSQR's residual
    # estimate but not its decreases: both paths flag the same outer
    # iterations (with a test relative to |b|, each flagged 5 of 8, and not
    # the same 5)
    inst = add_noise(gen_subset_selection(200, 40, bern_p=0.3, seed=5),
                     0.02, 55)
    cfg = _fixed(outer_max=8, inner_tol=1e-12)
    dense = irn_solve(inst.A, inst.b, cfg, inst.x_true)
    free = irn_solve(_MatrixFreeOnly(inst.A.matrix), inst.b, cfg,
                     inst.x_true)
    assert dense.column("stagnated") == free.column("stagnated")


def test_reduction_passed_in_is_the_one_used(monkeypatch):
    # a caller's reduction saves the solve its own QR, with the same result
    inst = _instance(m=120, n=30)
    reduced = _reduce_system(inst.A.matrix, inst.b)
    ref = irn_solve(inst.A, inst.b, _fixed(), inst.x_true)

    def no_qr(*args):
        raise AssertionError("the loop reduced A again")

    monkeypatch.setattr(irn, "_reduce_system", no_qr)
    res = irn_solve(inst.A, inst.b, _fixed(), inst.x_true, reduced=reduced)
    np.testing.assert_array_equal(res.x, ref.x)


@pytest.mark.parametrize("solver", ["irn", "irn_s2p"])
@pytest.mark.parametrize("kind", ["fixed", "dp"])
@pytest.mark.parametrize("bad", ["nan_A", "inf_A", "nan_b"])
def test_irn_rejects_non_finite_data_before_any_work(monkeypatch, solver,
                                                     kind, bad):
    inst = _instance()
    M, b = inst.A.matrix.copy(), inst.b.copy()
    if bad == "nan_b":
        b[7] = np.nan
    else:
        M[7, 3] = np.nan if bad == "nan_A" else np.inf
    S = identity_sketch(M.shape[0])

    def never(*args, **kwargs):
        raise AssertionError("work started on non-finite data")

    for name in ("_reduce_system", "apply_sketch", "lsqr_solve"):
        monkeypatch.setattr(irn, name, never)
    cfg = IRNConfig(outer_max=3, lambda_policy=LambdaPolicy(
        kind=kind, lam=0.5, nl=0.02))
    with pytest.raises(ValueError, match="non-finite"):
        if solver == "irn":
            irn_solve(DenseOperator(M), b, cfg)
        else:
            irn_s2p_solve(DenseOperator(M), b, cfg, S)
