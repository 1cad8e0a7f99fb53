from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import randkrylov.flex as flex
import randkrylov.regparam as regparam
from randkrylov.baselines import fista_solve
from randkrylov.flex import (
    FlexSolverConfig,
    ProjectedProblem,
    check_monotonicity_condition,
    exact_flex_solve,
    s2p_flex_solve,
    sns_flex_solve,
    solve_projected_tikhonov,
)
from randkrylov.irn import IRNConfig, irn_solve
from randkrylov.krylov import FlexibleFactorization, gmres_solve, lsqr_solve
from randkrylov.operators import (
    CompositeOperator,
    DenseOperator,
    DiagonalOperator,
    LinearOperator,
)
from randkrylov.problems import add_noise, gen_subset_selection
from randkrylov.regparam import LambdaPolicy, dp_select, optimal_select
from randkrylov.sketching import (
    SketchOperator,
    apply_sketch,
    build_flex_sketches,
    build_leverage_sketch,
    identity_sketch,
    span_distortion,
)
from randkrylov.weights import (
    WeightSpec,
    compute_weights,
    objective_values,
    sketched_majorant_value,
)


def _rng(seed=0):
    return np.random.Generator(np.random.Philox(seed))


def _square_instance(n=30, seed=2, nl=0.02):
    inst = gen_subset_selection(n, n, bern_p=0.3, seed=seed)
    return add_noise(inst, nl, seed + 50) if nl > 0 else inst


def _tall_instance(m=60, n=24, seed=3, nl=0.02):
    inst = gen_subset_selection(m, n, bern_p=0.3, seed=seed)
    return add_noise(inst, nl, seed + 50) if nl > 0 else inst


def test_projected_tikhonov_matches_normal_equations():
    rng = _rng(1)
    k = 7
    R1 = np.triu(rng.standard_normal((k, k))) + 2 * np.eye(k)
    R2 = np.triu(rng.standard_normal((k, k))) + 2 * np.eye(k)
    beta = rng.standard_normal(k)
    pp = ProjectedProblem(R1, beta, 0.4, R2, k)
    for lam in (0.0, 1e-3, 1.0):
        y = solve_projected_tikhonov(pp, lam)
        ref = np.linalg.solve(R1.T @ R1 + lam * R2.T @ R2, R1.T @ beta)
        np.testing.assert_allclose(y, ref, rtol=1e-9, atol=1e-11)
    with pytest.raises(ValueError):
        solve_projected_tikhonov(pp, -1.0)


def test_projected_tikhonov_singular_raises():
    pp = ProjectedProblem(np.zeros((2, 2)), np.ones(2), 0.0, np.zeros((2, 2)), 2)
    with pytest.raises(np.linalg.LinAlgError):
        solve_projected_tikhonov(pp, 1.0)


@pytest.mark.parametrize("lam", [0.0, 1e-20])
def test_s2p_preconditioner_whitens_a_pair_with_a_singular_gram(monkeypatch,
                                                                 lam):
    # R1^T R1 + lam R2^T R2 rounds to a singular matrix here; the R of the
    # stacked QR still whitens the sketched pair
    R1 = np.array([[1.0, 1.0], [0.0, 1e-9]])
    pp = ProjectedProblem(R1, np.ones(2), 0.0, np.eye(2), 2)
    seen = []
    monkeypatch.setattr(flex, "lsqr_solve",
                        lambda *args, right_precond, **kwargs:
                        seen.append(right_precond))
    flex._s2p_projected_solve(pp, pp, lam, 1e-10, np.zeros(2))
    stacked = np.vstack([R1, np.sqrt(lam) * np.eye(2)])
    whitened = scipy.linalg.solve_triangular(seen[0], stacked.T,
                                              trans="T").T
    assert np.linalg.cond(whitened) <= 1.0 + 1e-8


def _grow(kind, M, b, k, rng, S1=None):
    """A flexible factorization of (M, b) grown to k columns or breakdown
    with ell = 4 and per-step weights, behind a counting matrix-free A, and
    the Grams of U and of S1 U grown as ``_flex_loop`` grows them."""
    A = _MatrixFreeOnly(M)
    fact = FlexibleFactorization(kind, A, b, ell=4)
    fits = [flex._BasisGram(fact, k + 1)]
    if S1 is not None:
        fits.append(flex._BasisGram(fact, k + 1, S1))
    while fact.k < k and not fact.breakdown:
        if (fact.expand(rng.random(M.shape[1]) + 0.2) is not None
                and not fact.breakdown):
            for fit in fits:
                fit.add()
    return A, fact, fits


def _gram_close(X, Y):
    return np.linalg.norm(X - Y) <= 1e-12 * max(np.linalg.norm(Y), 1.0)


@pytest.mark.parametrize("kind", ["arnoldi", "golub_kahan"])
@pytest.mark.parametrize("breakdown", [False, True])
def test_stacked_projected_reads_A_Zbar_from_U_H(kind, breakdown):
    # the unsketched pair, stacked as [R1; sqrt(lam) R2], has the normal
    # equations of [A Zbar; sqrt(lam) L] y ~ [b; 0], read from U H with no
    # apply of A, for ell = 4 and per-step weights. With breakdown, A maps
    # the first c coordinates to the first three and b lies there: Arnoldi
    # (c = 3) stores a zero u_4 at k = 3, Golub-Kahan (c = 2) finds v_3 = 0
    # and keeps k = 2
    rng = _rng(21)
    m, n = (30, 30) if kind == "arnoldi" else (40, 30)
    M = rng.standard_normal((m, n))
    b = rng.standard_normal(m)
    c = 3 if kind == "arnoldi" else 2
    if breakdown:
        M[:3, c:] = 0.0
        M[3:, :c] = 0.0
        b[3:] = 0.0
    A, fact, [fit] = _grow(kind, M, b, 8, rng)
    assert fact.breakdown == breakdown and fact.k == (c if breakdown else 8)
    if breakdown:  # only Arnoldi's last u is zero
        assert np.any(fact.U[:, -1]) == (kind == "golub_kahan")
    A.applies = A.adjoints = 0
    Z, k = fact.Z, fact.k
    MZ = M @ Z
    for w in (None, rng.random(n) + 0.5):
        pp = fit.pair(np.eye(k) if w is None else flex._weighted_r(w, Z))
        assert pp.R1.shape == pp.R2.shape == (k, k) and pp.k == k
        assert _gram_close(pp.R1.T @ pp.R1, MZ.T @ MZ)
        assert _gram_close(pp.R1.T @ pp.beta, MZ.T @ b)
        assert abs(pp.beta @ pp.beta + pp.beta_perp**2 - b @ b) <= 1e-12 * (
            b @ b)
        L = np.eye(k) if w is None else w[:, None] * Z
        assert _gram_close(pp.R2.T @ pp.R2, L.T @ L)
    assert (A.applies, A.adjoints) == (0, 0)


def _blocked_householder_r(w, Z):
    R = np.zeros((0, Z.shape[1]))
    for lo in range(0, Z.shape[0], 512):
        rows = slice(lo, lo + 512)
        R = np.linalg.qr(np.vstack([R, w[rows, None] * Z[rows]]), mode="r")
    return R


def test_weighted_r_comes_from_the_gram_unless_ill_conditioned(monkeypatch):
    # R2 of W Zbar over three 512-row blocks: the Cholesky factor of the
    # blocked Gram, with no QR, is the blocked Householder R up to row signs.
    # At cond(W Zbar) = 1e8, built as the ill-conditioned input of
    # test_row_basis_cgs2_is_orthogonal_on_an_ill_conditioned_input, the
    # squaring would lose every digit, and R2 is the Householder R itself
    rng = _rng(14)
    n, k = 1300, 40
    w = rng.random(n) + 0.5
    Z = rng.standard_normal((n, k))
    U = np.linalg.qr(rng.standard_normal((n, k)))[0]
    V = np.linalg.qr(rng.standard_normal((k, k)))[0]
    Z_ill = U @ np.diag(np.geomspace(1.0, 1e-8, k)) @ V.T / w[:, None]
    ref, ref_ill = (_blocked_householder_r(w, Z),
                    _blocked_householder_r(w, Z_ill))
    qrs, real_qr = [], np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr",
                        lambda *args, **kwargs: qrs.append(1) or real_qr(
                            *args, **kwargs))
    R = flex._weighted_r(w, Z)
    assert not qrs
    signs = np.sign(np.diag(ref))[:, None]
    assert np.linalg.norm(R - signs * ref) <= 1e-12 * np.linalg.norm(ref)
    assert flex._weighted_r(w, Z_ill).tobytes() == ref_ill.tobytes()
    assert len(qrs) == 3


@pytest.mark.parametrize("kind", ["golub_kahan", "arnoldi"])
def test_data_fit_pairs_survive_a_singular_gram(monkeypatch, kind):
    # Golub-Kahan on a square A at k = m: the m + 1 columns of U (and of
    # S1 U) are dependent, Cholesky fails and R_B comes from a QR of B.
    # Arnoldi breakdown: the zero u_4 is left out of the Gram, which stays
    # definite. Either way both pairs are the Householder R of the bordered
    # [M Zbar, b] and of S1 [M Zbar, b], up to row signs
    rng = _rng(5)
    m = 8
    M = 2.0 * np.eye(m) + rng.standard_normal((m, m)) / np.sqrt(m)
    b = rng.standard_normal(m)
    if kind == "arnoldi":
        M[:3, 3:] = 0.0
        M[3:, :3] = 0.0
        b[3:] = 0.0
    rows = np.concatenate([np.arange(m), rng.integers(0, m, 5)])
    S1 = SketchOperator(rows.size, m, rows, rng.random(rows.size) + 0.5)
    # the spy sees only the factorizations of a basis Gram (U's or S1 U's),
    # not those of R2's Gram
    cholesky_ok, real, in_pair = [], scipy.linalg.cholesky, []
    real_pair = flex._BasisGram.pair

    def pair(self, R2):
        in_pair.append(True)
        try:
            return real_pair(self, R2)
        finally:
            in_pair.pop()

    def spy(G, **kwargs):
        if not in_pair:
            return real(G, **kwargs)
        try:
            out = real(G, **kwargs)
        except np.linalg.LinAlgError:
            cholesky_ok.append(False)
            raise
        cholesky_ok.append(True)
        return out
    monkeypatch.setattr(scipy.linalg, "cholesky", spy)
    monkeypatch.setattr(flex._BasisGram, "pair", pair)
    _, fact, fits = _grow(kind, M, b, m, rng, S1)
    k = fact.k
    assert k == (m if kind == "golub_kahan" else 3)
    assert fact.U.shape[1] == k + 1 and fact.breakdown == (kind == "arnoldi")
    bordered = np.column_stack([M @ fact.Z, b])
    for fit, ref in zip(fits, (bordered, apply_sketch(S1, bordered))):
        pp = fit.pair(np.eye(k))
        T = np.linalg.qr(ref, mode="r")[:k]  # b lies in range(M Zbar)
        ours = np.column_stack([pp.R1, pp.beta])
        signs = lambda R: np.sign(np.diag(R))[:, None]
        assert pp.beta_perp <= 1e-12 * np.linalg.norm(b)
        assert (np.linalg.norm(signs(ours) * ours - signs(T) * T)
                <= 1e-12 * np.linalg.norm(T)), fit.S1
        assert cholesky_ok[-1] == (kind == "arnoldi")
    if kind == "arnoldi":  # the loop, too, keeps the zero u out of the Gram
        cholesky_ok.clear()
        cfg = FlexSolverConfig(basis="arnoldi", scheme="exact", k_max=6,
                               lambda_policy=LambdaPolicy(kind="fixed",
                                                          lam=0.5))
        res = exact_flex_solve(DenseOperator(M), b, cfg)
        assert [r.breakdown for r in res.trace] == [False] * 2 + [True] * 4
        assert len(cholesky_ok) == 6 and all(cholesky_ok)


def test_monotonicity_condition_edges():
    ok, margin = check_monotonicity_condition(2.0, 1.0, 0.0)
    assert ok and margin == 1.0  # eps = 0: any decrease qualifies
    ok, margin = check_monotonicity_condition(1.0, 0.0, 0.5)
    assert ok and margin == np.inf
    ok, _ = check_monotonicity_condition(1.0, 1.0, 0.25)
    assert not ok  # needs relative decrease >= 2*eps/(1-eps)
    with pytest.raises(ValueError):
        check_monotonicity_condition(1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        check_monotonicity_condition(1.0, -1.0, 0.1)


def test_flex_config_validation():
    with pytest.raises(ValueError):
        FlexSolverConfig(basis="qr")
    with pytest.raises(ValueError):
        FlexSolverConfig(mode="strong")
    with pytest.raises(ValueError):
        FlexSolverConfig(scheme="guess")
    for bad in ({"k_max": 0}, {"ell": 0}, {"inner_tol": 0.0},
                {"inner_tol": -1e-8}):
        with pytest.raises(ValueError):
            FlexSolverConfig(**bad)
    FlexSolverConfig(ell=None, k_max=1)
    FlexSolverConfig(ell=np.int64(2), k_max=np.int64(3))
    with pytest.raises(ValueError):
        sns_flex_solve(None, None, FlexSolverConfig(scheme="exact"),
                       None, None)
    with pytest.raises(ValueError):
        exact_flex_solve(None, None, FlexSolverConfig())
    with pytest.raises(ValueError):
        s2p_flex_solve(None, None, FlexSolverConfig(), None, None)
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="inner_tol"):
            FlexSolverConfig(scheme="sketch_to_precondition", inner_tol=bad)
    # the sketched schemes need both sketches, sized to A: once, no sketch
    # ran the exact scheme (s2p preconditioned with the unsketched pair),
    # and S1 without S2 failed in irw mode with an AttributeError
    inst = _tall_instance(m=40, n=18)
    S1, S2 = build_flex_sketches(inst.A, inst.b, 4, 4, 1)
    for solve, scheme in ((sns_flex_solve, "sketch_and_solve"),
                          (s2p_flex_solve, "sketch_to_precondition")):
        cfg = FlexSolverConfig(scheme=scheme, k_max=4)
        for s1, s2 in ((None, None), (S1, None), (None, S2),
                       (identity_sketch(39), S2), (S1, identity_sketch(19)),
                       (S2, S1)):
            with pytest.raises(ValueError, match="sketches S1"):
                solve(inst.A, inst.b, cfg, s1, s2)
        assert len(solve(inst.A, inst.b, cfg, S1, S2).trace) == 4


@pytest.mark.parametrize("bad", [{"ell": 2.5}, {"k_max": 2.5},
                                 {"ell": True}, {"k_max": None}])
def test_flex_config_refuses_a_non_integer_window_or_size(bad):
    # once accepted: ell = 2.5 failed only at the first expand, and a bool
    # passed as the integer it compares as
    with pytest.raises(ValueError, match=f"{next(iter(bad))} must be an "
                                         "integer"):
        FlexSolverConfig(**bad)


def test_exact_fgmres_unweighted_equals_gmres(iterates):
    # p=2 (unit weights), full orthogonalization, no regularization: the
    # flexible Arnoldi solver is plain GMRES
    inst = _square_instance(n=25, nl=0.0)
    cfg = FlexSolverConfig(basis="arnoldi", mode="none", scheme="exact",
                           ell=None, k_max=10,
                           weight=WeightSpec(p=2.0, tau=1e-10),
                           lambda_policy=LambdaPolicy(kind="fixed", lam=0.0))
    exact_flex_solve(inst.A, inst.b, cfg, inst.x_true)
    xs = []
    gmres_solve(inst.A, inst.b, tol=0.0, maxit=10,
                callback=lambda x, Ax: xs.append(x.copy()))
    [xfs] = iterates
    for xf, xg in zip(xfs, xs):
        np.testing.assert_allclose(xf, xg, rtol=1e-9, atol=1e-10)


def test_exact_flsqr_unweighted_equals_lsqr(iterates):
    # well-conditioned Gaussian system keeps the recurrence-based LSQR and
    # the QR-projected flexible form numerically close
    from randkrylov.operators import DenseOperator

    rng = _rng(21)
    A = DenseOperator(rng.standard_normal((60, 24)))
    b = rng.standard_normal(60)
    cfg = FlexSolverConfig(basis="golub_kahan", mode="none", scheme="exact",
                           ell=None, k_max=8,
                           weight=WeightSpec(p=2.0, tau=1e-10),
                           lambda_policy=LambdaPolicy(kind="fixed", lam=0.0))
    exact_flex_solve(A, b, cfg)
    xs = []
    lsqr_solve(A, b, tol=0.0, maxit=8,
               callback=lambda x, Ax: xs.append(x.copy()))
    [xfs] = iterates
    for xf, xl in zip(xfs, xs):
        np.testing.assert_allclose(xf, xl, rtol=1e-6, atol=1e-8)


def test_sns_identity_sketch_matches_exact(iterates):
    inst = _tall_instance(m=40, n=18)
    ws = WeightSpec(p=1.0, tau=1e-4)
    pol = LambdaPolicy(kind="fixed", lam=0.5)
    base = dict(basis="golub_kahan", mode="irw", ell=None, k_max=10,
                weight=ws, lambda_policy=pol)
    exact_flex_solve(inst.A, inst.b, FlexSolverConfig(scheme="exact", **base),
                     inst.x_true)
    S1, S2 = identity_sketch(40), identity_sketch(18)
    sns_flex_solve(inst.A, inst.b,
                   FlexSolverConfig(scheme="sketch_and_solve", **base),
                   S1, S2, inst.x_true)
    ref_xs, got_xs = iterates
    for xr, xg in zip(ref_xs, got_xs):
        np.testing.assert_allclose(xg, xr, rtol=1e-8, atol=1e-9)


def test_s2p_identity_sketch_matches_exact(iterates):
    inst = _tall_instance(m=40, n=18)
    ws = WeightSpec(p=1.0, tau=1e-4)
    S1, S2 = identity_sketch(40), identity_sketch(18)
    for mode in ("irw", "hybrid"):
        for pol in (LambdaPolicy(kind="fixed", lam=0.5),
                    LambdaPolicy(kind="dp", nl=0.02),
                    LambdaPolicy(kind="optimal", x_true=inst.x_true)):
            base = dict(basis="golub_kahan", mode=mode, ell=None, k_max=10,
                        weight=ws, lambda_policy=pol)
            ref = exact_flex_solve(inst.A, inst.b,
                                   FlexSolverConfig(scheme="exact", **base),
                                   inst.x_true)
            got = s2p_flex_solve(
                inst.A, inst.b,
                FlexSolverConfig(scheme="sketch_to_precondition",
                                 inner_tol=1e-13, **base),
                S1, S2, inst.x_true)
            msg = f"{mode} {pol.kind}"
            np.testing.assert_allclose(got.column("lam"), ref.column("lam"),
                                       rtol=1e-8, atol=1e-12, err_msg=msg)
            for xr, xg in zip(*iterates[-2:]):
                np.testing.assert_allclose(xg, xr, rtol=1e-7, atol=1e-8,
                                           err_msg=msg)


def _normal_equation_lambda(policy, A, w, b):
    # the previous identity-phase rule, kept as an oracle: normal equations
    # of min |A y - b|^2 + lam |W y|^2
    G_A, G_W, c_A = A.T @ A, np.diag(w**2), A.T @ b
    smax = float(np.linalg.norm(G_A, 2))
    y_of = lambda lam: np.linalg.solve(G_A + lam * G_W, c_A)
    if policy.kind == "dp":
        target = policy.tau_lambda * policy.nl * float(np.linalg.norm(b))
        return dp_select(lambda lam: float(np.linalg.norm(A @ y_of(lam) - b)),
                         target, scale=smax), y_of
    return optimal_select(y_of, policy.x_true, scale=smax), y_of


def test_s2p_identity_phase_after_span_exhaustion(iterates):
    # k_max beyond the space dimension spends the basis at outer iteration
    # 12; from 13 on the loop keeps that basis, which spans R^n, so each step
    # solves the full reweighted problem
    inst = _square_instance(n=12)
    ws = WeightSpec(p=1.0, tau=1e-4)
    S1, S2 = identity_sketch(12), identity_sketch(12)
    for pol in (LambdaPolicy(kind="fixed", lam=0.5),
                LambdaPolicy(kind="dp", nl=0.02),
                LambdaPolicy(kind="optimal", x_true=inst.x_true)):
        cfg = FlexSolverConfig(basis="golub_kahan", mode="irw",
                               scheme="sketch_to_precondition", ell=None,
                               k_max=15, weight=ws, lambda_policy=pol,
                               inner_tol=1e-12)
        res = s2p_flex_solve(inst.A, inst.b, cfg, S1, S2,
                             inst.x_true)
        xs = iterates[-1]
        assert len(xs) == 15
        assert np.all(np.isfinite(res.x))
        if pol.kind == "fixed":
            F = res.column("objective_mm")
            slack = 1e-8 * F[0]
            assert all(b <= a + slack for a, b in zip(F, F[1:]))
            continue
        for it in (13, 14, 15):
            w = compute_weights(xs[it - 2], ws)
            ref, y_of = _normal_equation_lambda(pol, inst.A.matrix, w, inst.b)
            got = res.trace[it - 1].lam
            assert ref > 0.0, (pol.kind, it)
            if pol.kind == "dp":
                assert abs(got - ref) <= 1e-8 * ref, it
            else:  # the second grid resolves the flat minimum to 2e-3 only
                err = lambda lam: np.linalg.norm(y_of(lam) - inst.x_true)
                assert err(got) <= err(ref) * (1.0 + 1e-8), it
        if pol.kind == "dp":  # the identity-phase solves meet the discrepancy
            target = pol.tau_lambda * pol.nl * np.linalg.norm(inst.b)
            for x in xs[12:]:
                r = np.linalg.norm(inst.A.apply(x) - inst.b)
                assert abs(r / target - 1.0) < 1e-6


@pytest.mark.parametrize("scheme", ["exact", "sketch_and_solve",
                                    "sketch_to_precondition"])
def test_singular_stacked_pair_retries_at_the_lambda_floor(monkeypatch,
                                                           scheme):
    # every scheme takes its factor from one helper; a singular one is
    # retried at lambda = 1e-14, and the trace keeps the chosen lambda
    inst = _tall_instance()
    lams, real = [], flex._stacked_factor

    def singular_at_zero(pp, lam):
        lams.append(lam)
        if lam == 0.0:
            raise np.linalg.LinAlgError("singular stacked pair")
        return real(pp, lam)

    monkeypatch.setattr(flex, "_stacked_factor", singular_at_zero)
    cfg = FlexSolverConfig(mode="none", scheme=scheme, k_max=4)
    if scheme == "exact":
        res = exact_flex_solve(inst.A, inst.b, cfg)
    else:
        S1, S2 = build_flex_sketches(inst.A, inst.b, 4, 4, 1)
        solve = (sns_flex_solve if scheme == "sketch_and_solve"
                 else s2p_flex_solve)
        res = solve(inst.A, inst.b, cfg, S1, S2)
    assert lams == [0.0, 1e-14] * 4
    assert res.column("lam") == [0.0] * 4
    assert np.all(np.isfinite(res.x))


@pytest.mark.parametrize("scheme", ["exact", "sketch_and_solve",
                                    "sketch_to_precondition"])
def test_each_flexible_lambda_choice_bidiagonalizes_once(monkeypatch, scheme):
    # every rule reads the k-by-k standard form R1 R2^{-1} of the pair it
    # selects on, from one SVD per choice; fixed takes none
    inst = _tall_instance()
    real, shapes = regparam.svd_factors, []

    def spy(M, b):
        shapes.append(M.shape)
        return real(M, b)

    monkeypatch.setattr(regparam, "svd_factors", spy)
    S1, S2 = build_flex_sketches(inst.A, inst.b, 5, 4, 1)
    for kind, mode in (("fixed", "irw"), ("dp", "irw"), ("optimal", "irw"),
                       ("dp", "hybrid")):
        shapes.clear()
        policy = LambdaPolicy(kind=kind, lam=0.1, nl=0.02,
                              x_true=inst.x_true)
        cfg = FlexSolverConfig(mode=mode, scheme=scheme, k_max=5,
                               lambda_policy=policy)
        if scheme == "exact":
            res = exact_flex_solve(inst.A, inst.b, cfg, inst.x_true)
        else:
            solve = (sns_flex_solve if scheme == "sketch_and_solve"
                     else s2p_flex_solve)
            res = solve(inst.A, inst.b, cfg, S1, S2, inst.x_true)
        assert len(res.trace) == 5
        expect = [] if kind == "fixed" else [(k, k) for k in range(1, 6)]
        assert shapes == expect, (kind, mode)


def test_each_scheme_chooses_lambda_on_the_pair_its_step_solves(monkeypatch):
    # one selector: exact and s2p choose on the unsketched pair, with m
    # rows, sketch-and-solve on the sketched pair, with S1.s rows. At the
    # first row all three share x = 0, so s2p's oracle lambda is exact's bit
    # for bit, while sketch-and-solve's differs
    inst = add_noise(gen_subset_selection(80, 30, seed=0), 0.05, 1)
    S1, S2 = build_flex_sketches(inst.A, inst.b, 6, 4, 1)
    real, rows = flex.select_lambda, []

    def spy(policy, pair, b_norm, gram=None, sketch_rows=None):
        rows.append(sketch_rows)
        return real(policy, pair, b_norm, gram, sketch_rows)

    monkeypatch.setattr(flex, "select_lambda", spy)
    runs = {"exact": lambda cfg: exact_flex_solve(inst.A, inst.b, cfg),
            "sketch_and_solve": lambda cfg: sns_flex_solve(
                inst.A, inst.b, cfg, S1, S2),
            "sketch_to_precondition": lambda cfg: s2p_flex_solve(
                inst.A, inst.b, cfg, S1, S2)}
    expect_rows = {"exact": 80, "sketch_and_solve": S1.s,
                   "sketch_to_precondition": 80}
    assert S1.s != 80
    for kind in ("optimal", "wgcv"):
        first = {}
        for scheme, run in runs.items():
            if kind == "wgcv" and scheme == "sketch_to_precondition":
                continue  # its config refuses the gcv policies
            rows.clear()
            cfg = FlexSolverConfig(scheme=scheme, k_max=6, lambda_policy=(
                LambdaPolicy(kind=kind, x_true=inst.x_true)))
            first[scheme] = run(cfg).trace[0].lam
            assert rows == [expect_rows[scheme]] * 6, (kind, scheme)
        assert first["sketch_and_solve"] != first["exact"], kind
        if kind == "optimal":
            assert first["sketch_to_precondition"] == first["exact"]


def test_projected_gcv_leaves_the_grid_floor_at_small_k(monkeypatch):
    # the (k+1)-row GCV of [R1; 0] y ~ [beta; beta_perp] has an interior
    # minimum from k = 1 on; with k rows and no beta_perp it was flat at
    # k = 1 and sat on the grid floor at k = 2-3
    real, picks = regparam._grid_argmin, []

    def spy(fun, scale):
        lam, flagged = real(fun, scale)
        picks.append((lam, flagged, regparam._log_grid(scale)[0]))
        return lam, flagged

    monkeypatch.setattr(regparam, "_grid_argmin", spy)
    inst = add_noise(gen_subset_selection(60, 24, seed=0), 0.05, 1)
    cfg = FlexSolverConfig(scheme="exact", k_max=3,
                           lambda_policy=LambdaPolicy(kind="gcv"))
    res = exact_flex_solve(inst.A, inst.b, cfg, inst.x_true)
    assert len(picks) == 3
    for k, (lam, flagged, floor) in enumerate(picks, 1):
        assert not flagged and lam > 1e3 * floor, k
    assert res.column("lam") == [lam for lam, _, _ in picks]


def test_s2p_rejects_gcv_policies():
    for kind in ("gcv", "wgcv"):
        with pytest.raises(ValueError, match="sketch-to-precondition"):
            FlexSolverConfig(scheme="sketch_to_precondition",
                             lambda_policy=LambdaPolicy(kind=kind))


class _MatrixFreeOnly(LinearOperator):
    """A dense matrix behind a strictly matrix-free interface, counting its
    applies."""

    kind = "matrix_free_only"

    def __init__(self, M):
        super().__init__(*M.shape)
        self.M = M
        self.applies = self.adjoints = 0

    def _apply(self, x):
        self.applies += 1
        return self.M @ x

    def _apply_adjoint(self, y):
        self.adjoints += 1
        return self.M.T @ y

    def materialize(self):
        raise AssertionError("a solver materialized A")


def test_flex_schemes_never_materialize_A():
    # run past span exhaustion (n = 12, k_max = 15), where the basis is spent
    inst = _square_instance(n=12)
    A = _MatrixFreeOnly(inst.A.matrix)
    S1, S2 = identity_sketch(12), identity_sketch(12)
    for pol in (LambdaPolicy(kind="dp", nl=0.02),
                LambdaPolicy(kind="optimal", x_true=inst.x_true)):
        base = dict(basis="golub_kahan", mode="irw", ell=None, k_max=15,
                    weight=WeightSpec(p=1.0, tau=1e-4), lambda_policy=pol)
        runs = {
            "exact": lambda cfg: exact_flex_solve(A, inst.b, cfg),
            "sketch_and_solve": lambda cfg: sns_flex_solve(
                A, inst.b, cfg, S1, S2),
            "sketch_to_precondition": lambda cfg: s2p_flex_solve(
                A, inst.b, cfg, S1, S2),
        }
        for scheme, run in runs.items():
            res = run(FlexSolverConfig(scheme=scheme, **base))
            assert len(res.trace) == 15, (scheme, pol.kind)
            assert np.all(np.isfinite(res.x)), (scheme, pol.kind)


def test_sns_records_monotonicity_diagnostics():
    inst = _tall_instance(m=50, n=20)
    ws = WeightSpec(p=1.0, tau=1e-4)
    cfg = FlexSolverConfig(mode="irw", scheme="sketch_and_solve", k_max=8,
                           weight=ws,
                           lambda_policy=LambdaPolicy(kind="fixed", lam=0.5))
    S1, S2 = identity_sketch(50), identity_sketch(20)
    res = sns_flex_solve(inst.A, inst.b, cfg, S1, S2, inst.x_true)
    assert all(np.isfinite(r.eps_hat) for r in res.trace)
    assert all(r.mono_satisfied is not None for r in res.trace)
    # identity sketches have zero distortion, so eps_hat must be ~0
    assert max(r.eps_hat for r in res.trace) < 1e-12


def test_sns_applies_A_as_often_as_exact():
    # the sketched majorants come from the projected pair, so sketch-and-solve
    # pays what exact pays: one expansion per step, and one objective per
    # run, at the last row; the other rows read A x = U H y
    ws = WeightSpec(p=1.0, tau=1e-4)
    pol = LambdaPolicy(kind="fixed", lam=0.5)
    for basis, inst in (("golub_kahan", _tall_instance(m=120, n=30)),
                        ("arnoldi", _square_instance(n=30))):
        A = _MatrixFreeOnly(inst.A.matrix)
        S1, S2 = build_flex_sketches(A, inst.b, 12, 4, 7)
        counts = {}
        for scheme in ("exact", "sketch_and_solve"):
            A.applies = A.adjoints = 0
            cfg = FlexSolverConfig(basis=basis, scheme=scheme, k_max=12,
                                   weight=ws, lambda_policy=pol)
            if scheme == "exact":
                res = exact_flex_solve(A, inst.b, cfg)
            else:
                res = sns_flex_solve(A, inst.b, cfg, S1, S2)
            assert len(res.trace) == 12
            counts[scheme] = (A.applies, A.adjoints)
        assert any(r.mono_satisfied is not None for r in res.trace), basis
        assert counts["sketch_and_solve"] == counts["exact"], basis
        assert counts["exact"][0] == 12 + 1, basis


def test_warm_starts_apply_A_once_beyond_the_inner_iterations():
    # IRN, per outer: each inner LSQR applies A and A^T once per iteration
    # and A^T once at its start, and carries A x, which the trace row reads
    # and whose residual is the next warm start's; only the last row applies
    # A. Per solve, A^T b sets the stopping targets.
    ws = WeightSpec(p=1.0, tau=1e-4)
    pol = LambdaPolicy(kind="fixed", lam=0.5)
    inst = _tall_instance(m=120, n=30)
    A = _MatrixFreeOnly(inst.A.matrix)
    res = irn_solve(A, inst.b, IRNConfig(weight=ws, outer_max=6,
                                         inner_tol=1e-6, lambda_policy=pol))
    inner, outer = res.trace[-1].cum_inner, len(res.trace)
    assert (A.applies, A.adjoints) == (inner + 1, inner + outer + 1)

    # flexible s2p, per outer: the expansion applies A (and A^T for
    # Golub-Kahan) once; the trace rows and the inner LSQR read
    # A Zbar = U H from the factorization, and only the last row applies A
    cfg = FlexSolverConfig(basis="golub_kahan", mode="irw",
                           scheme="sketch_to_precondition", k_max=12,
                           weight=ws, lambda_policy=pol, inner_tol=1e-6)
    square = _square_instance(n=40)
    for basis, inst, adjoints in (("golub_kahan", inst, 1),
                                  ("arnoldi", square, 0)):
        A = _MatrixFreeOnly(inst.A.matrix)
        S1, S2 = build_flex_sketches(A, inst.b, 12, 4, 7)
        A.applies = A.adjoints = 0
        res = s2p_flex_solve(A, inst.b, replace(cfg, basis=basis), S1, S2)
        inner, outer = res.trace[-1].cum_inner, len(res.trace)
        assert inner > 2 * outer, basis
        assert (A.applies, A.adjoints) == (outer + 1, adjoints * outer), basis


@pytest.mark.parametrize("basis", ["arnoldi", "golub_kahan"])
@pytest.mark.parametrize("case", ["plain", "breakdown", "spent"])
def test_trace_rows_match_a_true_apply(basis, case, iterates):
    # every row but the last reads A x = U H y from the factorization; its
    # objectives match a true apply at its iterate to 1e-12, and the last
    # row's, which applies A, bit for bit. The breakdown is that of
    # test_stacked_projected_reads_A_Zbar_from_U_H; a spent basis reaches
    # k = min(m, n) = 8 and keeps it for the last 4 rows
    rng = _rng(31)
    m, n = (30, 30) if basis == "arnoldi" else (40, 30)
    if case == "spent":
        m, n = (8, 8) if basis == "arnoldi" else (12, 8)
    M = rng.standard_normal((m, n))
    b = rng.standard_normal(m)
    if case == "breakdown":
        c = 3 if basis == "arnoldi" else 2
        M[:3, c:] = 0.0
        M[3:, :c] = 0.0
        b[3:] = 0.0
    A = DenseOperator(M)
    S1, S2 = build_flex_sketches(A, b, 12, 4, 7)
    ws = WeightSpec(p=1.0, tau=1e-4)
    for scheme in ("exact", "sketch_and_solve", "sketch_to_precondition"):
        cfg = FlexSolverConfig(basis=basis, scheme=scheme, k_max=12,
                               weight=ws, inner_tol=1e-8,
                               lambda_policy=LambdaPolicy(kind="fixed",
                                                          lam=0.5))
        res = (exact_flex_solve(A, b, cfg) if scheme == "exact" else
               (sns_flex_solve if scheme == "sketch_and_solve"
                else s2p_flex_solve)(A, b, cfg, S1, S2))
        rows = res.trace
        assert len(rows) == len(iterates[-1]) == 12
        assert rows[-1].breakdown == (case == "breakdown"), scheme
        for row, x in zip(rows, iterates[-1]):
            mm, lit = objective_values(A, b, x, ws, row.lam)
            if row is rows[-1]:
                assert (row.objective_mm, row.objective_literal) == (mm, lit)
            else:
                assert abs(row.objective_mm - mm) <= 1e-12 * mm, (scheme, row)
                assert abs(row.objective_literal - lit) <= 1e-12 * lit, scheme


def test_sns_monotonicity_flags_match_sketched_majorant(iterates):
    # every flag recomputed on the recorded iterates, with the weights of the
    # previous iterate, from sketched_majorant_value in irw mode; in hybrid
    # mode the penalty is lam |y|^2 in the coefficients of x = Zbar y, on
    # the replayed basis
    for mode in ("irw", "hybrid"):
        inst = _tall_instance(m=200, n=40)
        ws = WeightSpec(p=1.0, tau=1e-4)
        S1, S2 = build_flex_sketches(inst.A, inst.b, 15, 4, 5)
        cfg = FlexSolverConfig(
            mode=mode, k_max=15, weight=ws,
            lambda_policy=LambdaPolicy(kind="fixed", lam=0.5))
        res = sns_flex_solve(inst.A, inst.b, cfg, S1, S2)
        fact = FlexibleFactorization("golub_kahan", inst.A, inst.b, ell=4)
        x_prev = np.zeros(inst.A.ncols)
        flags = []
        for row, x in zip(res.trace, iterates[-1]):
            w = compute_weights(x_prev, ws)
            fact.expand(1.0 / w)

            def functional(x):
                if mode == "irw":
                    return sketched_majorant_value(S1, S2, inst.A, inst.b, w,
                                                   x, row.lam)
                y = np.linalg.lstsq(fact.Z, x, rcond=None)[0]
                return (sketched_majorant_value(S1, S2, inst.A, inst.b, w,
                                                x, 0.0)
                        + row.lam * float(y @ y))

            expected = None
            if row.eps_hat < 1.0:
                expected, _ = check_monotonicity_condition(
                    functional(x_prev), functional(x), row.eps_hat)
            assert row.mono_satisfied == expected, (mode, row.outer)
            flags.append(row.mono_satisfied)
            x_prev = x
        assert True in flags and False in flags, mode


def test_sns_hybrid_monotonicity_flags_track_the_minimized_functional():
    # in hybrid mode the step minimizes |S1 (A x - b)|^2 + lam |y|^2 over a
    # growing basis, so with an identity sketch (eps = 0) every step descends
    inst = _tall_instance(m=200, n=40)
    cfg = FlexSolverConfig(mode="hybrid", k_max=15,
                           weight=WeightSpec(p=1.0, tau=1e-4),
                           lambda_policy=LambdaPolicy(kind="fixed", lam=0.5))
    res = sns_flex_solve(inst.A, inst.b, cfg, identity_sketch(200),
                         identity_sketch(40))
    assert [r.mono_satisfied for r in res.trace] == [True] * 15


def test_sns_eps_hat_is_the_exact_span_distortion(iterates):
    # replay the basis from the recorded iterates (weights of the previous
    # iterate) and compare eps_hat with the distortion of S1 over
    # span([A Zbar, b]) and, in irw mode, of S2 over span(W Zbar); the square
    # runs go past span exhaustion (n = 12, k_max = 15), where b lies in
    # span(A Zbar)
    ws = WeightSpec(p=1.0, tau=1e-4)
    tall = _tall_instance(m=200, n=40)
    square = _square_instance(n=12)
    uniform = lambda m, s, seed: build_leverage_sketch(np.full(m, 1.0 / m),
                                                       s, seed)
    cases = [
        (tall, "golub_kahan", 4, build_flex_sketches(tall.A, tall.b, 15, 4,
                                                      5)),
        (square, "golub_kahan", None, (uniform(12, 48, 1),
                                       uniform(12, 48, 2))),
        (square, "arnoldi", None, (uniform(12, 48, 3), uniform(12, 48, 4))),
    ]
    for inst, basis, ell, (S1, S2) in cases:
        m, n = inst.A.nrows, inst.A.ncols
        for mode in ("irw", "hybrid"):
            cfg = FlexSolverConfig(
                basis=basis, mode=mode, ell=ell, k_max=15, weight=ws,
                lambda_policy=LambdaPolicy(kind="fixed", lam=0.5))
            res = sns_flex_solve(inst.A, inst.b, cfg, S1, S2)
            fact = FlexibleFactorization(basis, inst.A, inst.b, ell=ell)
            AZ = []
            x_prev = np.zeros(n)
            for row, x in zip(res.trace, iterates[-1]):
                w = compute_weights(x_prev, ws)
                if fact.k < min(m, n) and not fact.breakdown:
                    AZ.append(fact.expand(1.0 / w))
                ref = span_distortion(S1, np.column_stack(AZ + [inst.b]))
                if mode == "irw":
                    ref = max(ref, span_distortion(S2, w[:, None] * fact.Z))
                assert row.eps_hat == pytest.approx(ref, rel=1e-8), (
                    basis, mode, row.outer)
                x_prev = x
            assert fact.k == min(m, n, 15), (basis, mode)


def test_change_of_variables_solves_the_psi_functional(iterates):
    # min |Ax - b|^2 + lam |Psi x|_1 (smoothed) is the Psi = I problem on
    # A Psi^{-1} in u = Psi x; each solver's objective, mapped back, is the
    # Psi-functional evaluated here from its definition
    p, tau, lam = 1.0, 1e-4, 0.5
    ws = WeightSpec(p=p, tau=tau)
    pol = LambdaPolicy(kind="fixed", lam=lam)
    for m, basis in ((80, "golub_kahan"), (30, "arnoldi")):
        inst = _tall_instance(m=m, n=30)
        d = np.linspace(0.5, 2.0, 30)
        psi_inv = DiagonalOperator(d).inverse()
        AP = CompositeOperator([inst.A, psi_inv])
        S1, S2 = identity_sketch(m), identity_sketch(30)
        base = dict(basis=basis, ell=None, k_max=10, weight=ws,
                    lambda_policy=pol)
        runs = [
            exact_flex_solve(AP, inst.b, FlexSolverConfig(scheme="exact",
                                                          **base)),
            sns_flex_solve(AP, inst.b, FlexSolverConfig(**base), S1, S2),
            irn_solve(AP, inst.b, IRNConfig(weight=ws, outer_max=6,
                                            lambda_policy=pol)),
        ]
        for res, us in zip(runs, iterates[-3:]):
            for row, u in zip(res.trace, us):
                x = psi_inv.apply(u)
                r = inst.A.matrix @ x - inst.b
                F = r @ r + (2 * lam / p) * np.sum(((d * x) ** 2
                                                    + tau**2) ** (p / 2))
                assert row.objective_mm == pytest.approx(F, rel=1e-12)


def test_flex_mode_none_has_zero_lambda():
    inst = _tall_instance(m=40, n=16)
    cfg = FlexSolverConfig(mode="none", scheme="exact", k_max=5,
                           weight=WeightSpec(p=1.0, tau=1e-4),
                           lambda_policy=LambdaPolicy(kind="fixed", lam=7.0))
    res = exact_flex_solve(inst.A, inst.b, cfg, inst.x_true)
    assert all(r.lam == 0.0 for r in res.trace)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 29), st.sampled_from([np.nan, np.inf, -np.inf]),
       st.sampled_from(["lsqr", "gmres", "exact_flex", "irn", "fista"]))
def test_solvers_reject_non_finite_rhs(i, bad, solver):
    # a NaN or inf in b is refused up front, never a silent NaN or zero x
    inst = _square_instance()
    b = inst.b.copy()
    b[i] = bad
    runs = {
        "lsqr": lambda: lsqr_solve(inst.A, b),
        "gmres": lambda: gmres_solve(inst.A, b),
        "exact_flex": lambda: exact_flex_solve(
            inst.A, b, FlexSolverConfig(scheme="exact", k_max=3)),
        "irn": lambda: irn_solve(inst.A, b, IRNConfig(outer_max=2)),
        "fista": lambda: fista_solve(inst.A, b, 0.1, n_iter=3),
    }
    with pytest.raises(ValueError, match="non-finite"):
        runs[solver]()
