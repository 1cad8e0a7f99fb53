"""Acceptance gate: one test per release criterion, each printing a single
PASS/FAIL line (bypassing capture) with the measured quantity."""

import sys
import time

import numpy as np
import pytest

import randkrylov as rk
from randkrylov.cli import main
from randkrylov.flex import check_monotonicity_condition
from randkrylov.regparam import _grid_argmin, _wgcv_value
from randkrylov.sketching import build_flex_sketches
from randkrylov.weights import ObjectiveSpec, objective_value


def _report(name, ok, detail):
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] {name}: {detail}"
    print(line, file=sys.__stdout__, flush=True)
    try:
        import conftest  # repeated in the pytest terminal summary

        conftest.ACCEPTANCE_LINES.append(line)
    except ImportError:
        pass
    assert ok, f"{name}: {detail}"


def _rng(seed=0):
    return np.random.Generator(np.random.Philox(seed))


# ---------------------------------------------------------------------------

def test_criterion_01_adjoint_suite():
    t0 = time.time()
    rng = _rng(100)
    ops = [
        rk.IdentityOperator(40),
        rk.DenseOperator(rng.standard_normal((35, 18))),
        rk.DiagonalOperator(rng.standard_normal(25) + 4.0),
        rk.CompositeOperator([rk.DenseOperator(rng.standard_normal((20, 12))),
                              rk.DiagonalOperator(rng.random(12) + 0.5)]),
        rk.Convolution2DOperator(16, sigma=1.4),
        rk.RadonOperator(12, np.linspace(10.0, 170.0, 5), 18),
    ]
    worst = 0.0
    for op in ops:
        for _ in range(100):
            x = rng.standard_normal(op.ncols)
            y = rng.standard_normal(op.nrows)
            lhs = op.apply(x) @ y
            rhs = x @ op.apply_adjoint(y)
            gap = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-30)
            worst = max(worst, gap)
    dt = time.time() - t0
    _report("criterion 1 (adjoint suite)", worst < 1e-10 and dt < 5.0,
            f"max relative adjoint gap {worst:.2e} over 6 kinds x 100 pairs, "
            f"{dt:.1f}s")


def test_criterion_02_majorant_suite():
    t0 = time.time()
    rng = _rng(101)
    A = rk.DenseOperator(rng.standard_normal((12, 8)))
    b = rng.standard_normal(12)
    tangency_worst = 0.0
    dominate_ok = True
    grad_worst = 0.0
    for p in (0.5, 1.0, 1.5, 2.0):
        spec = ObjectiveSpec(rk.WeightSpec(p=p, tau=0.01), 0.7)
        x0 = rng.standard_normal(8)
        f0 = objective_value(A, b, x0, spec)
        q0 = rk.majorant_value(A, b, x0, x0, spec)
        tangency_worst = max(tangency_worst,
                             abs(q0 - f0) / max(abs(f0), 1.0))
        for _ in range(1000):
            x = 3.0 * rng.standard_normal(8)
            f = objective_value(A, b, x, spec)
            q = rk.majorant_value(A, b, x, x0, spec)
            if q < f - 1e-9 * max(abs(f), 1.0):
                dominate_ok = False
        # central finite differences of F and of the majorant at the tangent
        # point must agree to 1e-5 relative
        h = 1e-6
        gf = np.empty(8)
        gq = np.empty(8)
        for i in range(8):
            e = np.zeros(8)
            e[i] = h
            gf[i] = (objective_value(A, b, x0 + e, spec)
                     - objective_value(A, b, x0 - e, spec)) / (2 * h)
            gq[i] = (rk.majorant_value(A, b, x0 + e, x0, spec)
                     - rk.majorant_value(A, b, x0 - e, x0, spec)) / (2 * h)
        grad_worst = max(grad_worst,
                         np.max(np.abs(gf - gq)) / max(np.max(np.abs(gf)), 1.0))
    dt = time.time() - t0
    ok = tangency_worst < 1e-12 and dominate_ok and grad_worst < 1e-5 \
        and dt < 10.0
    _report("criterion 2 (majorant suite)", ok,
            f"tangency {tangency_worst:.2e}, majorization "
            f"{'held' if dominate_ok else 'VIOLATED'} on 4x1000 points, "
            f"gradient gap {grad_worst:.2e}, {dt:.1f}s")


def test_criterion_03_reduction_suite(iterates):
    t0 = time.time()
    rng = _rng(102)
    # (a) identity weights + full orthogonalization = standard Arnoldi / GK
    n = 15
    M = rng.standard_normal((n, n))
    bvec = rng.standard_normal(n)
    fact = rk.FlexibleFactorization("arnoldi", rk.DenseOperator(M),
                                    bvec, ell=None)
    for _ in range(8):
        fact.expand(np.ones(n))
    # independent plain Arnoldi oracle
    us = [bvec / np.linalg.norm(bvec)]
    H = np.zeros((9, 8))
    for j in range(8):
        q = M @ us[j]
        for i, u in enumerate(us):
            H[i, j] = u @ q
            q = q - H[i, j] * u
        H[j + 1, j] = np.linalg.norm(q)
        us.append(q / H[j + 1, j])
    gap_a = max(np.max(np.abs(fact.H - H)),
                np.max(np.abs(fact.U - np.stack(us, axis=1))))

    Mt = rng.standard_normal((20, 12))
    bt = rng.standard_normal(20)
    fgk = rk.FlexibleFactorization("golub_kahan", rk.DenseOperator(Mt),
                                   bt, ell=None)
    for _ in range(6):
        fgk.expand(np.ones(12))
    us = [bt / np.linalg.norm(bt)]
    vs = []
    alphas, betas = [], []
    for _ in range(6):
        v = Mt.T @ us[-1] - (betas[-1] * vs[-1] if vs else 0.0)
        alphas.append(np.linalg.norm(v))
        vs.append(v / alphas[-1])
        u = Mt @ vs[-1] - alphas[-1] * us[-1]
        betas.append(np.linalg.norm(u))
        us.append(u / betas[-1])
    gap_a = max(gap_a, np.max(np.abs(fgk.V - np.stack(vs, axis=1))),
                np.max(np.abs(np.diag(fgk.H) - alphas)),
                np.max(np.abs(np.diag(fgk.H, -1) - betas)))

    # (b) identity sketches + full orthogonalization on a 60x60 instance
    inst = rk.gen_subset_selection(60, 60, bern_p=0.3, seed=5)
    inst = rk.add_noise(inst, 0.02, 55)
    ws = rk.WeightSpec(p=1.0, tau=1e-4)
    pol = rk.LambdaPolicy(kind="fixed", lam=0.5)
    base = dict(basis="golub_kahan", mode="irw", ell=None, k_max=12,
                weight=ws, lambda_policy=pol)
    rk.exact_flex_solve(inst.A, inst.b,
                        rk.FlexSolverConfig(scheme="exact", **base),
                        inst.x_true)
    S1 = rk.identity_sketch(60)
    S2 = rk.identity_sketch(60)
    rk.sns_flex_solve(
        inst.A, inst.b,
        rk.FlexSolverConfig(scheme="sketch_and_solve", **base),
        S1, S2, inst.x_true)
    rk.s2p_flex_solve(
        inst.A, inst.b,
        rk.FlexSolverConfig(scheme="sketch_to_precondition",
                            inner_tol=1e-14, **base),
        S1, S2, inst.x_true)
    ref_xs, sns_xs, s2p_xs = iterates
    scale = max(np.linalg.norm(x) for x in ref_xs)
    gap_b = max(
        max(np.max(np.abs(a - c)) for a, c in zip(ref_xs, sns_xs)),
        max(np.max(np.abs(a - c)) for a, c in zip(ref_xs, s2p_xs)),
    ) / scale

    # (c) p = 2 collapses IRN to Tikhonov
    inst2 = rk.gen_subset_selection(50, 20, bern_p=0.3, seed=6)
    inst2 = rk.add_noise(inst2, 0.02, 66)
    lam = 0.8
    cfg = rk.IRNConfig(weight=rk.WeightSpec(p=2.0, tau=1e-10), outer_max=3,
                       inner_tol=1e-14,
                       lambda_policy=rk.LambdaPolicy(kind="fixed", lam=lam))
    rk.irn_solve(inst2.A, inst2.b, cfg, inst2.x_true)
    Mx = inst2.A.matrix
    tikh = np.linalg.solve(Mx.T @ Mx + lam * np.eye(20), Mx.T @ inst2.b)
    gap_c = max(np.max(np.abs(x - tikh)) for x in iterates[-1]) \
        / np.linalg.norm(tikh)

    dt = time.time() - t0
    ok = gap_a < 1e-10 and gap_b < 1e-8 and gap_c < 1e-8 and dt < 30.0
    _report("criterion 3 (reduction suite)", ok,
            f"standard-basis gap {gap_a:.2e}, identity-sketch gap "
            f"{gap_b:.2e}, Tikhonov gap {gap_c:.2e}, {dt:.1f}s")


def _prop_instances():
    a = rk.gen_subset_selection(200, 50, seed=41)
    a = rk.add_noise(a, 0.02, 42)
    b = rk.gen_starfield_deblur(32, seed=43)
    b = rk.add_noise(b, 0.01, 44)
    return [("subset_selection(200,50)", a, "golub_kahan", 5.0),
            ("starfield(32) flsqr", b, "golub_kahan", 1e-4),
            ("starfield(32) fgmres", b, "arnoldi", 1e-4)]


def test_criterion_04_proposition_2_monotonicity():
    t0 = time.time()
    ws = rk.WeightSpec(p=1.0, tau=1e-10)
    details = []
    ok = True
    for name, inst, basis, lam in _prop_instances():
        S1, S2 = build_flex_sketches(inst.A, inst.b, 40, 4, 45)
        cfg = rk.FlexSolverConfig(
            basis=basis, mode="irw", scheme="sketch_to_precondition",
            ell=4, k_max=40, weight=ws,
            lambda_policy=rk.LambdaPolicy(kind="fixed", lam=lam),
            inner_tol=1e-12)
        res = rk.s2p_flex_solve(inst.A, inst.b, cfg, S1, S2,
                                inst.x_true)
        F = res.column("objective_mm")
        slack = 1e-8 * F[0]
        rises = sum(1 for a, b in zip(F, F[1:]) if b > a + slack)
        ok = ok and rises == 0 and min(F) >= 0.0
        details.append(f"{name}: {rises} increases over 40 iters")
    dt = time.time() - t0
    ok = ok and dt < 60.0
    _report("criterion 4 (monotone descent, sketch-to-precondition)",
            ok, "; ".join(details) + f", {dt:.1f}s")


def test_proposition_2_holds_at_a_loose_inner_tolerance():
    # each inner LSQR starts from the previous iterate and its residual
    # never rises, so the MM objective cannot rise however early it stops
    ws = rk.WeightSpec(p=1.0, tau=1e-10)
    for name, inst, basis, lam in _prop_instances():
        S1, S2 = build_flex_sketches(inst.A, inst.b, 40, 4, 45)
        cfg = rk.FlexSolverConfig(
            basis=basis, mode="irw", scheme="sketch_to_precondition",
            ell=4, k_max=40, weight=ws,
            lambda_policy=rk.LambdaPolicy(kind="fixed", lam=lam),
            inner_tol=1e-2)
        F = rk.s2p_flex_solve(inst.A, inst.b, cfg, S1, S2).column(
            "objective_mm")
        slack = 1e-8 * F[0]
        rises = [k for k in range(1, len(F)) if F[k] > F[k - 1] + slack]
        assert not rises, (name, rises)


def test_criterion_05_proposition_1_implication():
    t0 = time.time()
    ws = rk.WeightSpec(p=1.0, tau=1e-10)
    violations = 0
    details = []
    for name, inst, basis, lam in _prop_instances():
        S1, S2 = build_flex_sketches(inst.A, inst.b, 40, 4, 45)
        cfg = rk.FlexSolverConfig(
            basis=basis, mode="irw", scheme="sketch_and_solve",
            ell=4, k_max=40, weight=ws,
            lambda_policy=rk.LambdaPolicy(kind="fixed", lam=lam))
        res = rk.sns_flex_solve(inst.A, inst.b, cfg, S1, S2,
                                inst.x_true)
        F = res.column("objective_mm")
        slack = 1e-8 * F[0]
        flags = [bool(r.mono_satisfied) for r in res.trace]
        for i in range(1, len(F)):
            if flags[i] and F[i] > F[i - 1] + slack:
                violations += 1
        met = [i + 1 for i, f in enumerate(flags) if f]
        details.append(f"{name}: condition met at iterations {met[:8]}"
                       + ("..." if len(met) > 8 else ""))
    dt = time.time() - t0
    ok = violations == 0 and dt < 60.0
    _report("criterion 5 (sufficient-decrease implication)", ok,
            f"{violations} implication violations; " + "; ".join(details)
            + f", {dt:.1f}s")


def test_criterion_06_commutation_bitwise():
    t0 = time.time()
    rng = _rng(106)
    failures = 0
    for trial in range(50):
        m = int(rng.integers(10, 200))
        k = int(rng.integers(1, 12))
        s = int(rng.integers(5, 3 * m))
        Z = rng.standard_normal((m, k)) * np.exp(rng.standard_normal())
        w = np.exp(2.0 * rng.standard_normal(m))
        S = rk.build_leverage_sketch(rng.random(m) + 1e-3, s, seed=trial)
        lhs = rk.apply_sketch_weighted(S, w, Z)
        rhs = rk.apply_sketch(S, w[:, None] * Z)
        if not np.array_equal(lhs, rhs):
            failures += 1
    dt = time.time() - t0
    ok = failures == 0 and dt < 1.0
    _report("criterion 6 (diagonal commutation, bitwise)", ok,
            f"{failures}/50 triples differed, {dt:.2f}s")


def test_criterion_07_preconditioner_quality():
    t0 = time.time()
    lam = 1e-2
    good = 0
    conds = []
    for seed in range(10):
        rng = _rng(seed)
        M = rng.standard_normal((2000, 50))
        p = rk.estimate_leverage_scores(M)
        S = rk.build_leverage_sketch(p, 200, seed=seed)
        Y = rk.apply_sketch(S, M)
        R = rk.build_partly_exact_preconditioner(Y.T @ Y, np.ones(50), lam)
        stacked = np.vstack([M, np.sqrt(lam) * np.eye(50)])
        cond = np.linalg.cond(
            np.linalg.solve(R.T, stacked.T).T)
        conds.append(cond)
        if cond <= 3.0:
            good += 1
    # identity sketch: exact factorization of the augmented normal matrix
    rng = _rng(250)
    M = rng.standard_normal((400, 50))
    R = rk.build_partly_exact_preconditioner(M.T @ M, np.ones(50), lam)
    stacked = np.vstack([M, np.sqrt(lam) * np.eye(50)])
    cond_id = np.linalg.cond(np.linalg.solve(R.T, stacked.T).T)
    dt = time.time() - t0
    ok = good >= 9 and cond_id <= 1.0 + 1e-8 and dt < 20.0
    _report("criterion 7 (preconditioner quality)", ok,
            f"cond <= 3 in {good}/10 seeds (range {min(conds):.2f}-"
            f"{max(conds):.2f}), identity-sketch cond {cond_id:.12f}, "
            f"{dt:.1f}s")


def test_criterion_08_experiment_1_desk():
    t0 = time.time()
    inst = rk.gen_subset_selection(2000, 400, seed=7)
    inst = rk.add_noise(inst, 0.05, 11)
    ws = rk.WeightSpec(p=1.0, tau=1e-10)
    cfg = rk.IRNConfig(weight=ws, outer_max=15, inner_tol=1e-8,
                       inner_max=800,
                       lambda_policy=rk.LambdaPolicy(kind="fixed", lam=40.0))
    plain = rk.irn_solve(inst.A, inst.b, cfg, inst.x_true)
    p = rk.estimate_leverage_scores(inst.A.matrix)
    S = rk.build_leverage_sketch(p, 1600, 13)
    prec = rk.irn_s2p_solve(inst.A, inst.b, cfg, S, inst.x_true)

    F_target = plain.trace[-1].objective_mm * (1.0 + 1e-6)
    total_plain = plain.trace[-1].cum_inner
    reach = None
    for r in prec.trace:
        if r.objective_mm <= F_target:
            reach = r.cum_inner
            break
    speedup_ok = reach is not None and reach <= 0.5 * total_plain

    cfg_dp = rk.IRNConfig(weight=ws, outer_max=15, inner_tol=1e-8,
                          inner_max=800,
                          lambda_policy=rk.LambdaPolicy(kind="dp", nl=0.05))
    dp = rk.irn_s2p_solve(inst.A, inst.b, cfg_dp, S, inst.x_true)
    lams = dp.column("lam")[-5:]
    drift = max(abs(b - a) / abs(a) for a, b in zip(lams, lams[1:]))
    dt = time.time() - t0
    ok = speedup_ok and drift < 0.05 and dt < 180.0
    _report("criterion 8 (regression desk reproduction)", ok,
            f"sketch-preconditioned IRN reached the plain-IRN final "
            f"objective at {reach} of {total_plain} inner iterations "
            f"(budget {0.5 * total_plain:.0f}); DP lambda drift over last 5 "
            f"outers {drift:.3f}, {dt:.0f}s")


def test_criterion_09_experiment_2_desk():
    t0 = time.time()
    inst = rk.gen_starfield_deblur(64, sigma_blur=1.5, seed=21)
    inst = rk.add_noise(inst, 0.01, 22)
    ws = rk.WeightSpec(p=1.0, tau=1e-10)
    lam = 1e-5
    pol = rk.LambdaPolicy(kind="fixed", lam=lam)
    S1, S2 = build_flex_sketches(inst.A, inst.b, 50, 4, 23)
    sns = rk.sns_flex_solve(
        inst.A, inst.b,
        rk.FlexSolverConfig(basis="arnoldi", mode="irw",
                            scheme="sketch_and_solve", ell=4, k_max=50,
                            weight=ws, lambda_policy=pol),
        S1, S2, inst.x_true)
    s2p = rk.s2p_flex_solve(
        inst.A, inst.b,
        rk.FlexSolverConfig(basis="arnoldi", mode="irw",
                            scheme="sketch_to_precondition", ell=4, k_max=50,
                            weight=ws, lambda_policy=pol, inner_tol=1e-10),
        S1, S2, inst.x_true)
    hyb = rk.exact_flex_solve(
        inst.A, inst.b,
        rk.FlexSolverConfig(basis="arnoldi", mode="hybrid", scheme="exact",
                            ell=4, k_max=50,
                            weight=rk.WeightSpec(p=2.0, tau=1e-10),
                            lambda_policy=pol),
        inst.x_true)
    e_sns = sns.trace[-1].rel_error
    e_s2p = s2p.trace[-1].rel_error
    e_hyb = hyb.trace[-1].rel_error
    spec = ObjectiveSpec(ws, lam, "mm_consistent")
    Fs = {name: objective_value(inst.A, inst.b, r.x, spec)
          for name, r in (("sns", sns), ("s2p", s2p), ("hybrid", hyb))}
    dt = time.time() - t0
    ok = e_sns < e_hyb and e_s2p < e_hyb \
        and Fs["s2p"] == min(Fs.values()) and dt < 180.0
    _report("criterion 9 (deblurring desk reproduction)", ok,
            f"rel errors at k=50: reweighted sketch-and-solve {e_sns:.3f}, "
            f"sketch-to-precondition {e_s2p:.3f}, hybrid {e_hyb:.3f}; "
            f"final objectives {Fs['sns']:.3e}/{Fs['s2p']:.3e}/"
            f"{Fs['hybrid']:.3e}, {dt:.0f}s")


def test_criterion_10_experiment_3_desk():
    t0 = time.time()
    inst = rk.gen_tomo(64, n_angles=18, seed=31)
    inst = rk.add_noise(inst, 0.01, 32)
    xt = inst.x_true
    errs = []
    rk.lsqr_solve(inst.A, inst.b, tol=0.0, maxit=100,
                  callback=lambda x, Ax: errs.append(
                      np.linalg.norm(x - xt) / np.linalg.norm(xt)))
    lsqr_min = min(errs)

    ws = rk.WeightSpec(p=1.0, tau=1e-10)
    cfg = rk.FlexSolverConfig(
        basis="golub_kahan", mode="none", scheme="exact", ell=4, k_max=60,
        weight=ws, lambda_policy=rk.LambdaPolicy(kind="fixed", lam=0.0))
    fl = rk.exact_flex_solve(inst.A, inst.b, cfg, xt)
    flsqr_min = min(fl.column("rel_error"))

    S1, S2 = build_flex_sketches(inst.A, inst.b, 30, 4, 33)
    finals = {}
    for kind in ("dp", "optimal"):
        pol = rk.LambdaPolicy(kind=kind, nl=0.01, x_true=xt)
        cfg = rk.FlexSolverConfig(
            basis="golub_kahan", mode="irw",
            scheme="sketch_to_precondition", ell=4, k_max=30, weight=ws,
            lambda_policy=pol, inner_tol=1e-10)
        res = rk.s2p_flex_solve(inst.A, inst.b, cfg, S1, S2, xt)
        finals[kind] = res.trace[-1].rel_error
    ratio = finals["dp"] / finals["optimal"]
    dt = time.time() - t0
    ok = flsqr_min < lsqr_min and ratio <= 1.3 and dt < 300.0
    _report("criterion 10 (tomography desk reproduction)", ok,
            f"min rel error: flexible {flsqr_min:.3f} vs plain "
            f"{lsqr_min:.3f}; DP/optimal final-error ratio {ratio:.3f}, "
            f"{dt:.0f}s")


def test_criterion_11_parameter_rules():
    t0 = time.time()
    # DP root at 1e-6 relative accuracy against an analytic root
    resid = lambda lam: np.sqrt(lam / (lam + 1.0))
    dp_worst = max(abs(rk.dp_select(resid, t) - t**2 / (1 - t**2))
                   / (t**2 / (1 - t**2)) for t in (0.05, 0.3, 0.7, 0.95))
    # default omega is exactly (k+1)/s
    rng = _rng(111)
    k, s_rows = 5, 64
    R1 = np.triu(rng.standard_normal((k, k))) + 2 * np.eye(k)
    pair = rk.projected_pair(R1, rng.standard_normal(k), 0.0, np.eye(k))
    explicit, _ = _grid_argmin(
        lambda lam: _wgcv_value(lam, pair.c, pair.beta_t,
                                pair.beta_perp, (k + 1) / s_rows),
        pair.smax_sq)
    omega_exact = rk.select_lambda(rk.LambdaPolicy(kind="wgcv"), pair, 1.0,
                                   sketch_rows=s_rows) == explicit
    # filter-factor evaluation of the GCV function vs the dense influence
    # matrix of the (k+1)-row projected problem [R1; 0] y ~ [beta; beta_perp]
    R2 = np.triu(rng.standard_normal((k, k))) + 2 * np.eye(k)
    beta, beta_perp = rng.standard_normal(k), 0.5
    pair = rk.projected_pair(R1, beta, beta_perp, R2)
    c, beta_t = pair.c, pair.beta_t
    A1 = np.vstack([R1, np.zeros((1, k))])
    g_worst = 0.0
    for lam in (1e-6, 1e-3, 1e-1, 1.0, 10.0, 1e3):
        K = R1.T @ R1 + lam * (R2.T @ R2)
        Hmat = A1 @ np.linalg.solve(K, A1.T)
        r = np.append(beta, beta_perp)
        r = r - Hmat @ r
        dense = (k + 1) * float(r @ r) / (k + 1 - np.trace(Hmat)) ** 2
        got = _wgcv_value(lam, c, beta_t, beta_perp, 1.0)
        g_worst = max(g_worst, abs(got - dense) / dense)
    dt = time.time() - t0
    ok = dp_worst < 1e-6 and omega_exact and g_worst < 1e-10 and dt < 10.0
    _report("criterion 11 (parameter rules)", ok,
            f"DP root error {dp_worst:.2e}, default omega exact: "
            f"{omega_exact}, GCV evaluation gap {g_worst:.2e}, {dt:.1f}s")


def test_criterion_12_determinism(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("""
problem.generator = subset_selection
problem.m = 300
problem.n = 60
problem.seed = 3
problem.nl = 0.02
problem.noise_seed = 5
solver.irn-s2p-lsqr.family = irn_s2p
solver.irn-s2p-lsqr.seed = 1
solver.irn-s2p-lsqr.lambda = 2.0
solver.irn-s2p-lsqr.outer_max = 4
solver.irn-s2p-lsqr.tau = 1e-6
solver.s2p-irw-flsqr.family = flex
solver.s2p-irw-flsqr.seed = 2
solver.s2p-irw-flsqr.scheme = sketch_to_precondition
solver.s2p-irw-flsqr.mode = irw
solver.s2p-irw-flsqr.k_max = 8
solver.s2p-irw-flsqr.lambda = 2.0
solver.s2p-irw-flsqr.tau = 1e-6
""")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    rc1 = main(["run", "--config", str(cfg), "--out", str(out1)])
    rc2 = main(["run", "--config", str(cfg), "--out", str(out2)])
    same = all(
        (out1 / f"{n}.trace.csv").read_bytes()
        == (out2 / f"{n}.trace.csv").read_bytes()
        for n in ("irn-s2p-lsqr", "s2p-irw-flsqr"))
    ok = rc1 == 0 and rc2 == 0 and same
    _report("criterion 12 (determinism)", ok,
            "repeated runs produced byte-identical trace CSVs"
            if same else "trace CSVs differed between runs")
