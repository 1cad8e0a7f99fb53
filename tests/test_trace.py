"""The trace every solver family writes: rows numbered 1..N, both objectives
and the relative error at the recorded iterate, and the cumulative inner
count (inner LSQR iterations for IRN and s2p, one per row otherwise)."""

import dataclasses
from itertools import accumulate

import numpy as np
import pytest

import randkrylov.flex as flex
import randkrylov.irn as irn
import randkrylov.krylov as krylov
from randkrylov.baselines import fista_solve
from randkrylov.cli import run_solver
from randkrylov.flex import (
    FlexSolverConfig,
    exact_flex_solve,
    s2p_flex_solve,
    sns_flex_solve,
)
from randkrylov.irn import IRNConfig, irn_s2p_solve, irn_solve
from randkrylov.krylov import RowBasis, gmres_solve, lsqr_solve
from randkrylov.operators import DenseOperator
from randkrylov.problems import add_noise, gen_subset_selection
from randkrylov.regparam import LambdaPolicy
from randkrylov.sketching import (
    build_flex_sketches,
    build_leverage_sketch,
    estimate_leverage_scores,
)
from randkrylov.weights import WeightSpec, objective_values
from test_flex import _MatrixFreeOnly

WEIGHT = WeightSpec(p=1.0, tau=1e-4)
K = 6
FIXED = LambdaPolicy(kind="fixed", lam=0.5)
DP = LambdaPolicy(kind="dp", nl=0.02)


class _CountingDense(DenseOperator):
    def __init__(self, matrix):
        super().__init__(matrix)
        self.applies = 0

    def _apply(self, x):
        self.applies += 1
        return super()._apply(x)


def _instance(m=60, n=24):
    inst = gen_subset_selection(m, n, bern_p=0.3, seed=3)
    return add_noise(inst, 0.02, 53)


def _irn(sketched, policy, matrix_free=False):
    cfg = IRNConfig(weight=WEIGHT, outer_max=K, inner_tol=1e-6,
                    lambda_policy=policy)

    def run(inst):
        if matrix_free:
            return irn_solve(_MatrixFreeOnly(inst.A.matrix), inst.b, cfg,
                             inst.x_true)
        if not sketched:
            return irn_solve(inst.A, inst.b, cfg, inst.x_true)
        S = build_leverage_sketch(estimate_leverage_scores(inst.A.matrix),
                                  4 * inst.A.ncols, 1)
        return irn_s2p_solve(inst.A, inst.b, cfg, S, inst.x_true)
    return run


def _flex(scheme, policy=FIXED, mode="irw"):
    cfg = FlexSolverConfig(mode=mode, scheme=scheme, k_max=K, weight=WEIGHT,
                           lambda_policy=policy, inner_tol=1e-8)

    def run(inst):
        if scheme == "exact":
            return exact_flex_solve(inst.A, inst.b, cfg, inst.x_true)
        S1, S2 = build_flex_sketches(inst.A, inst.b, K, 4, 2)
        solver = (sns_flex_solve if scheme == "sketch_and_solve"
                  else s2p_flex_solve)
        return solver(inst.A, inst.b, cfg, S1, S2, inst.x_true)
    return run


def _cli_config(family, **keys):
    keys = dict(family=family, seed=1, k_max=K, tau=WEIGHT.tau, **keys)
    return {f"solver.t.{key}": str(value) for key, value in keys.items()}


def _cli(family, **keys):
    return lambda inst: run_solver("t", _cli_config(family, **keys), inst)


# family: (runner, square problem, cum_inner counts inner LSQR iterations)
# IRN on a dense A and the flexible schemes read each row's data fit from
# their factorizations, matrix-free IRN and the lsqr and gmres baselines the
# A x their Krylov solver carries, and all apply A only at the last row;
# fista's rows read the A x its step applies
FAMILIES = {
    "irn": (_irn(False, FIXED), False, True),
    "irn-matrix-free": (_irn(False, FIXED, matrix_free=True), False, True),
    "irn_s2p": (_irn(True, DP), False, True),
    "flex-exact": (_flex("exact"), False, False),
    "flex-sns": (_flex("sketch_and_solve"), False, False),
    "flex-s2p": (_flex("sketch_to_precondition"), False, True),
    "flex-s2p-dp": (_flex("sketch_to_precondition", DP), False, True),
    "fista": (lambda inst: fista_solve(inst.A, inst.b, 0.5, n_iter=K,
                                       weight=WEIGHT, x_true=inst.x_true),
              False, False),
    "cli-lsqr": (_cli("lsqr", **{"lambda": 0.5}), False, False),
    "cli-gmres": (_cli("gmres"), True, False),
}


@pytest.fixture
def inner_iters(monkeypatch):
    """The iteration count of every inner LSQR solve of IRN and s2p."""
    counts = []

    def counted(*args, **kwargs):
        res = lsqr_solve(*args, **kwargs)
        counts.append(res.n_iter)
        return res
    monkeypatch.setattr(irn, "lsqr_solve", counted)
    monkeypatch.setattr(flex, "lsqr_solve", counted)
    return counts


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_trace_rows_describe_the_returned_iterates(family, inner_iters,
                                                  iterates):
    run, square, counts_inner = FAMILIES[family]
    inst = _instance(24, 24) if square else _instance()
    res = run(inst)
    rows = res.trace
    [xs] = iterates
    assert len(rows) == len(xs) == K
    assert res.x is xs[-1]
    assert res.column("outer") == list(range(1, K + 1))
    x_true_norm = np.linalg.norm(inst.x_true)
    for row, x in zip(rows, xs):
        mm, lit = objective_values(inst.A, inst.b, x, WEIGHT, row.lam)
        if family == "fista" or row is rows[-1]:
            assert row.objective_mm == mm and row.objective_literal == lit
        else:
            assert abs(row.objective_mm - mm) <= 1e-12 * mm, row.outer
            assert abs(row.objective_literal - lit) <= 1e-12 * lit, row.outer
        assert row.rel_error == np.linalg.norm(x - inst.x_true) / x_true_norm
    steps = inner_iters if counts_inner else [1] * K
    assert len(steps) == K
    assert res.column("cum_inner") == list(accumulate(steps))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("family", ["cli-lsqr", "fista", "irn"])
def test_zero_x_true_has_no_relative_error(family):
    inst = gen_subset_selection(20, 6, seed=1)  # draws x_true = 0, so b = 0
    assert not inst.x_true.any()
    res = FAMILIES[family][0](inst)
    assert np.all(np.isnan(res.column("rel_error")))
    assert np.all(np.isfinite(res.column("objective_mm")))


@pytest.mark.parametrize("family", ["lsqr", "gmres"])
def test_cli_krylov_families_apply_A_once_per_run(family):
    inst = _instance(24, 24)
    A = _CountingDense(inst.A.matrix)
    inst = dataclasses.replace(inst, A=A)
    if family == "lsqr":
        lsqr_solve(A, inst.b, lam=0.5, tol=1e-12, maxit=K)
    else:
        gmres_solve(A, inst.b, tol=1e-12, maxit=K)
    own, A.applies = A.applies, 0
    keys = {"lambda": 0.5} if family == "lsqr" else {}
    res = run_solver("t", _cli_config(family, **keys), inst)
    assert len(res.trace) == K
    assert A.applies == own + 1


def test_s2p_without_a_lambda_rule_builds_no_unsketched_column_qr(
        monkeypatch):
    # every scheme builds one m-row basis, the factorization's U, and no
    # column QR; s2p's inner LSQR runs on the k-column [R1; sqrt(lam) R2]
    # whatever m is
    dims, shapes = [], []

    class Recording(RowBasis):
        def __init__(self, dim, rows=None):
            dims.append(dim)
            super().__init__(dim, rows)
    monkeypatch.setattr(krylov, "RowBasis", Recording)
    monkeypatch.setattr(flex, "RowBasis", Recording, raising=False)
    real = flex.lsqr_solve

    def recording_lsqr(op, *args, **kwargs):
        shapes.append(op.shape)
        return real(op, *args, **kwargs)
    monkeypatch.setattr(flex, "lsqr_solve", recording_lsqr)

    for m in (60, 120):
        inst = _instance(m=m)
        S1, S2 = build_flex_sketches(inst.A, inst.b, K, 4, 2)
        assert S1.s != m

        def m_row_bases(scheme, policy=FIXED, mode="irw"):
            dims.clear()
            shapes.clear()
            cfg = FlexSolverConfig(mode=mode, scheme=scheme, k_max=K,
                                   weight=WEIGHT, lambda_policy=policy)
            if scheme == "exact":
                exact_flex_solve(inst.A, inst.b, cfg)
            else:
                solve = (sns_flex_solve if scheme == "sketch_and_solve"
                         else s2p_flex_solve)
                solve(inst.A, inst.b, cfg, S1, S2)
            return dims.count(m)

        for policy in (FIXED, DP, LambdaPolicy(kind="optimal",
                                               x_true=inst.x_true)):
            assert m_row_bases("sketch_to_precondition", policy) == 1
            assert len(shapes) == K
            assert all(r <= 2 * k and k <= K for r, k in shapes), shapes
        assert m_row_bases("sketch_to_precondition", mode="none") == 1
        assert m_row_bases("exact") == 1
        assert m_row_bases("sketch_and_solve") == 1
