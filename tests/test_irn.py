
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
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
    _ROW_BLOCK,
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
    # factored in place, bit for bit the factor of a copy
    assert np.array_equal(R, scipy.linalg.cholesky(expect))
    for bad_lam in (0.0, np.inf):
        with pytest.raises(ValueError):
            build_partly_exact_preconditioner(C0, w, bad_lam)


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
                {"inner_tol": -1e-8}, {"inner_tol": float("nan")},
                # once accepted and failing mid-solve (a non-integer count,
                # an infinite tolerance), or run as one outer iteration (True)
                {"outer_max": 2.5}, {"inner_max": 2.5}, {"outer_max": True},
                {"inner_tol": float("inf")}):
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
    # a square R is a triangle, squared by dlauum; a wide one stays dense
    assert system.op.kind == ("dense" if shape == "wide" else "triangular")
    for trial in range(3):
        w_inv = rng.uniform(0.1, 10.0, n)
        got = _reweighted_pair(system, w_inv)  # dp and gcv: the Gram's T
        full = _reweighted_pair(system, w_inv, coef=True)  # the oracle's
        ref = svd_pair(M * w_inv[None, :], b)
        assert got.m == full.m == ref.m == m
        assert got.c.size == full.c.size == ref.c.size
        np.testing.assert_allclose(full.c, ref.c, rtol=1e-10,
                                   atol=1e-12 * ref.c[0])
        # T's eigenvalues are sigma^2 up to the Gram's rounding
        assert np.max(np.abs(got.c**2 - ref.c**2)) <= 1e-13 * ref.smax_sq
        assert abs(got.smax_sq - ref.smax_sq) <= 1e-13 * ref.smax_sq
        assert abs(_outside_range(full) - _outside_range(ref)) \
            <= 1e-12 * b_norm
        if shape != "rank_deficient":
            for pair in (got, full):
                assert abs(pair.beta_perp - ref.beta_perp) <= 1e-12 * b_norm
        for policy in (LambdaPolicy(kind="dp", nl=0.05 * m**0.5 / b_norm),
                       LambdaPolicy(kind="gcv"),
                       LambdaPolicy(kind="optimal", x_true=x_true)):
            lam = _select_lambda(policy, system, w_inv)
            lam_ref = select_lambda(policy, ref, b_norm,
                                    (np.diag(w_inv**2), w_inv * x_true))
            assert lam_ref > 0.0
            assert abs(lam - lam_ref) <= 1e-10 * lam_ref, (policy.kind, trial)


@pytest.mark.parametrize("shape", ["tall", "wide"])
def test_reweighted_dp_finds_a_small_root(shape):
    # b in range(M), so the dp root sits far below sigma_max^2, where the
    # Gram's rounding weighs most against the residual
    rng = _rng(41)
    m, n = (10, 16) if shape == "wide" else (50, 12)
    M = rng.standard_normal((m, n)) @ np.diag(np.geomspace(1.0, 1e-3, n))
    b = M @ rng.standard_normal(n)
    b_norm = float(np.linalg.norm(b))
    system = _reduce_system(M, b)
    for trial in range(3):
        w_inv = rng.uniform(0.1, 10.0, n)
        ref = svd_pair(M * w_inv[None, :], b)
        for nl in (1e-6, 1e-8):
            policy = LambdaPolicy(kind="dp", nl=nl)
            lam = _select_lambda(policy, system, w_inv)
            lam_ref = select_lambda(policy, ref, b_norm)
            assert 0.0 < lam_ref <= 1e-8 * ref.smax_sq, (nl, trial)
            assert abs(lam - lam_ref) <= 1e-10 * lam_ref, (nl, trial)


def test_irn_oracle_takes_the_weight_gram_as_a_vector():
    # y W^{-2} y from the diagonal gives the bits of y @ diag(W^{-2}) @ y
    rng = _rng(32)
    M = rng.standard_normal((40, 12)) @ np.diag(np.geomspace(1.0, 1e-3, 12))
    x_true = rng.standard_normal(12)
    b = M @ x_true + 0.05 * rng.standard_normal(40)
    system = _reduce_system(M, b)
    policy = LambdaPolicy(kind="optimal", x_true=x_true)
    for trial in range(5):
        w_inv = rng.uniform(0.1, 10.0, 12)
        pair = _reweighted_pair(system, w_inv, coef=True)
        dense = select_lambda(policy, pair, system.b_norm,
                              (np.diag(w_inv**2), w_inv * x_true))
        assert _select_lambda(policy, system, w_inv) == dense, trial


def test_irn_lambda_rules_need_no_dense_svd(monkeypatch):
    # dp and gcv read R W^{-1} through the tridiagonal form of its Gram,
    # never through a dense SVD
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
    for coef in (False, True):
        assert _reweighted_pair(system, w_inv, coef).beta_perp \
            == system.beta_perp
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
        for coef in (False, True):
            with pytest.raises(np.linalg.LinAlgError):
                _reweighted_pair(_ReducedSystem(R_bad, system.qtb,
                                                system.beta_perp, system.m,
                                                system.b_norm), w_inv, coef)


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


def _reduce_system_reference(M, b):
    """R, Q^T b and beta_perp from NumPy's QR of a stacked copy of [M, b]."""
    m, n = M.shape
    k = min(m, n)
    T = np.linalg.qr(np.column_stack([M, b]), mode="r")
    return T[:k, :n], T[:k, n], abs(T[k, n]) if m > n else 0.0


def _canonical(R, qtb, beta_perp, rank):
    """R and the first ``rank`` entries of Q^T b with each row's sign
    chosen so that R's diagonal is non-negative, and the norm of the rest
    of the residual, hypot(|Q^T b[rank:]|, beta_perp): a QR fixes the rows
    of [R, Q^T b] up to their signs, and beyond the rank of M it fixes only
    that norm."""
    sign = np.where(np.diag(R) < 0, -1.0, 1.0)
    return (sign[:, None] * R, (sign * qtb)[:rank],
            np.hypot(np.linalg.norm(qtb[rank:]), beta_perp))


# the (k+1)-by-k inputs are the flexible pairs' bordered R_B [H, b]; from
# 513 rows on (and from n + 2 rows past n + 1 > 512) [M, b] is streamed in
# 512-row blocks
@pytest.mark.parametrize("m, n, rank", [
    (200, 50, 50), (50, 50, 50), (30, 50, 30), (120, 40, 10), (2, 1, 1),
    (11, 10, 10), (31, 30, 30), (512, 40, 40), (513, 40, 40),
    (2 * 512 + 37, 60, 60), (1300, 40, 10), (1500, 600, 600)],
    ids=["tall", "square", "wide", "rank_deficient", "gram_1", "gram_10",
         "gram_30", "one_block", "one_block_and_a_row", "blocks_and_a_part",
         "streamed_rank_deficient", "triangle_past_a_block"])
def test_reduced_system_matches_numpys_qr(m, n, rank):
    rng = _rng(41)
    M = rng.standard_normal((m, n))
    if rank < min(m, n):
        M = M[:, :rank] @ rng.standard_normal((rank, n))
    b = rng.standard_normal(m)
    got = _reduce_system(M, b)
    scale = np.linalg.norm(np.column_stack([M, b]))
    for x, ref in zip(_canonical(got.R, got.qtb, got.beta_perp, rank),
                      _canonical(*_reduce_system_reference(M, b), rank)):
        np.testing.assert_allclose(x, ref, rtol=1e-13, atol=1e-13 * scale)
    assert got.R.flags.c_contiguous and not np.any(np.tril(got.R, -1))
    assert (got.m, got.b_norm) == (m, np.linalg.norm(b))


def test_reduced_system_of_one_block_is_one_geqrf():
    # up to max(512, n + 1) rows (every flexible pair's bordered R_B [H, b]
    # among them) the reduction is one geqrf of [M, b], bit for bit
    rng = _rng(43)
    for m, n in ((512, 40), (31, 30), (600, 599)):
        M, b = rng.standard_normal((m, n)), rng.standard_normal(m)
        T = np.column_stack([M, b])
        lwork = int(scipy.linalg.lapack.dgeqrf(T, lwork=-1)[2][0])
        T = scipy.linalg.lapack.dgeqrf(T, lwork=lwork)[0]
        got, k = _reduce_system(M, b), min(m, n)
        assert np.array_equal(got.R, np.triu(T[:k, :n]))
        assert np.array_equal(got.qtb, T[:k, n])
        assert got.beta_perp == abs(T[k, n])


@pytest.mark.parametrize("m, row", [(50, 7), (1100, 1000)],
                         ids=["one_block", "later_block"])
@pytest.mark.parametrize("bad", ["nan_M", "inf_M", "nan_b"])
def test_reduced_system_refuses_non_finite_data(m, row, bad):
    # a NaN R and beta_perp would reach FISTA and IRN without raising
    rng = _rng(44)
    M, b = rng.standard_normal((m, 10)), rng.standard_normal(m)
    if bad == "nan_b":
        b[row] = np.nan
    else:
        M[row, 3] = np.nan if bad == "nan_M" else -np.inf
    with pytest.raises(ValueError, match="non-finite"):
        _reduce_system(M, b)


def _traced_peak(f, *args):
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_reduced_system_memory_does_not_grow_with_m():
    # [M, b] streams in 512-row blocks into an (n+1)-square triangle, so
    # four times the rows hold no more: one block and the triangle
    n, rng = 400, _rng(42)
    peaks = []
    for m in (2000, 8000):
        M, b = rng.standard_normal((m, n)), rng.standard_normal(m)
        peaks.append(_traced_peak(_reduce_system, M, b))
    assert peaks[1] <= 1.1 * peaks[0]
    assert peaks[0] <= 8 * (_ROW_BLOCK + 2 * (n + 1)) * (n + 1)


@pytest.mark.parametrize("s", [100, _ROW_BLOCK, 2 * _ROW_BLOCK + 77],
                         ids=["part_block", "one_block", "blocks_and_a_part"])
def test_sketched_gram_matches_the_gram_of_the_sketch(s):
    # C0 accumulates one block of sketched rows at a time; it is symmetric
    # bit for bit, as each preconditioner's in-place Cholesky needs
    rng = _rng(45)
    M = rng.standard_normal((3000, 50)) * np.exp(rng.standard_normal(50))
    S = build_leverage_sketch(estimate_leverage_scores(M), s, 7)
    C0 = irn._sketched_gram(S, M)
    Y = apply_sketch(S, M)
    ref = Y.T @ Y
    assert np.abs(C0 - ref).max() <= 1e-13 * np.abs(ref).max()
    assert np.array_equal(C0, C0.T) and C0.flags.c_contiguous


def test_irn_s2p_holds_the_sketch_only_until_its_gram():
    # experiment 1's irn-s2p-lsqr: S A is gathered and scaled one 512-row
    # block at a time into C0 = (S A)^T (S A), never all s rows, and each
    # preconditioner is factored in place and freed after its inner solve
    inst = add_noise(gen_subset_selection(2000, 400, seed=7), 0.05, 11)
    reduced = _reduce_system(inst.A.matrix, inst.b)
    s, n = 1600, 400
    S = build_leverage_sketch(
        estimate_leverage_scores(inst.A.matrix, reduced.R), s, 13)
    cfg = IRNConfig(weight=WeightSpec(p=1.0, tau=1e-10), outer_max=15,
                    inner_max=800,
                    lambda_policy=LambdaPolicy(kind="fixed", lam=40.0))
    peak = _traced_peak(irn_s2p_solve, inst.A, inst.b, cfg, S, inst.x_true,
                        reduced)
    assert peak < 8 * (_ROW_BLOCK * n + 1.5 * n * n)


def test_irn_checks_the_system_matrix_in_row_blocks(monkeypatch):
    # a NaN in the last of 1300 rows is refused before any QR, by a check
    # that forms no m-row bool array
    inst = _instance(m=1300, n=40)
    M = inst.A.matrix.copy()
    n = M.shape[1]
    assert _traced_peak(irn._finite_rows, M, "M") < 2 * _ROW_BLOCK * n
    M[-1, -1] = np.nan

    def never(*args, **kwargs):
        raise AssertionError("work started on non-finite data")

    monkeypatch.setattr(irn, "_reduce_system", never)
    with pytest.raises(ValueError, match="system matrix has non-finite"):
        irn_solve(DenseOperator(M), inst.b, _fixed())


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
