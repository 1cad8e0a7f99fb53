"""IRN's dp and gcv pair, the tridiagonal form of the left Gram
R W^{-2} R^T of the reweighted system: its fit and GCV function against the
filter sums of a dense SVD, its input checks, its memory and its threads."""

import sys
import threading
import tracemalloc

import numpy as np
import pytest

import randkrylov.regparam as regparam
from randkrylov.irn import (
    _ReducedSystem,
    _reduce_system,
    _reweighted_pair,
    _select_lambda,
)
from randkrylov.regparam import (
    LambdaPolicy,
    _filters,
    _log_grid,
    svd_pair,
    tridiagonal_pair,
)


def _rng(seed=0):
    return np.random.Generator(np.random.Philox(seed))


def _problem(shape, seed=50):
    """M, b of one shape; the rank-deficient M has two null directions."""
    rng = _rng(seed)
    m, n = {"tall": (50, 12), "square": (16, 16), "wide": (10, 16),
            "rank_deficient": (50, 12), "one_column": (8, 1),
            "one_row": (1, 6)}[shape]
    M = rng.standard_normal((m, n)) @ np.diag(np.geomspace(1.0, 1e-3, n))
    if shape == "rank_deficient":
        M[:, 7] = M[:, 2]
        M[:, 9] = 0.5 * M[:, 4]
    b = M @ rng.standard_normal(n) + 0.05 * rng.standard_normal(m)
    return M, b, rng.uniform(0.1, 10.0, n)


def _gcv(pair, lam):
    """(|r|^2 + beta_perp^2) / (m - trace(influence))^2 on a grid."""
    tr = np.sum(_filters(lam, pair.c)[0], axis=-1) + (pair.m - pair.c.size)
    return pair.fit(lam) / tr**2


SHAPES = ["tall", "square", "wide", "rank_deficient"]


@pytest.mark.parametrize("shape", SHAPES)
def test_fit_and_gcv_match_the_svd_filter_sums_on_the_whole_grid(shape):
    M, b, w_inv = _problem(shape)
    system = _reduce_system(M, b)
    R0, qtb0 = system.R.copy(), system.qtb.copy()
    got = _reweighted_pair(system, w_inv)
    ref = svd_pair(M * w_inv[None, :], b)
    assert np.array_equal(system.R, R0) and np.array_equal(system.qtb, qtb0)
    grid = _log_grid(ref.smax_sq)
    # a perturbation of the Gram of order eps sigma_max^2 moves the fit by
    # about eps sigma_max^2 / lam relative: 1e-7 at the grid's low end,
    # 1e-11 from lam = 1e-8 sigma_max^2 up
    rtol = 1e-11 + 1e-19 * ref.smax_sq / grid
    for mine, theirs in ((got.fit(grid), ref.fit(grid)),
                         (_gcv(got, grid), _gcv(ref, grid))):
        assert np.all(np.abs(mine - theirs) <= rtol * theirs)
    # one lambda at a time gives the grid's values
    assert got.fit(grid[7]) == got.fit(grid)[7]
    # at lam = 0 only beta_perp is left
    assert got.fit(0.0) == got.beta_perp**2 == system.beta_perp**2


@pytest.mark.parametrize("shape", ["one_column", "one_row"])
def test_a_one_by_one_gram_needs_no_reduction(shape):
    M, b, w_inv = _problem(shape)
    system = _reduce_system(M, b)
    ref = svd_pair(M * w_inv[None, :], b)
    got = _reweighted_pair(system, w_inv)
    assert got.d.shape == got.c.shape == (1,)
    np.testing.assert_allclose(got.c, ref.c, rtol=1e-14)
    b_norm = float(np.linalg.norm(b))
    policies = [LambdaPolicy(kind="dp", nl=1e-3)]
    if shape == "one_column":  # on one row GCV is flat: any lambda is a min
        policies.append(LambdaPolicy(kind="gcv"))
    for policy in policies:
        lam = _select_lambda(policy, system, w_inv)
        lam_ref = regparam.select_lambda(policy, ref, b_norm)
        assert abs(lam - lam_ref) <= 1e-12 * lam_ref, policy.kind


@pytest.mark.parametrize("where", ["R", "w_inv"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_system_raises_before_lapack(monkeypatch, where, bad):
    called = []
    for name in ("dsytrd", "dormqr", "dstebz", "dsterf", "dptsv"):
        monkeypatch.setattr(regparam, name,
                            lambda *a, _n=name, **k: called.append(_n))
    M, b, w_inv = _problem("tall")
    system = _reduce_system(M, b)
    if where == "R":
        R = system.R.copy()
        R[3, 5] = bad
        system = _ReducedSystem(R, system.qtb, system.beta_perp, system.m,
                                system.b_norm)
    else:
        w_inv[4] = bad
    for policy in (LambdaPolicy(kind="dp", nl=0.05), LambdaPolicy(kind="gcv")):
        with pytest.raises(np.linalg.LinAlgError):
            _select_lambda(policy, system, w_inv)
    assert not called


def test_an_overflowing_gram_raises_and_lapack_failures_surface():
    M, b, w_inv = _problem("tall")
    system = _reduce_system(M, b)
    huge = _ReducedSystem(1e160 * system.R, system.qtb, system.beta_perp,
                          system.m, system.b_norm)  # finite R, inf in G
    with pytest.raises(np.linalg.LinAlgError):
        _reweighted_pair(huge, w_inv)
    with pytest.raises(np.linalg.LinAlgError):
        tridiagonal_pair(np.eye(3), np.array([1.0, np.nan, 0.0]), 0.0, 3)
    pair = _reweighted_pair(system, w_inv)
    with pytest.raises(np.linalg.LinAlgError, match="dptsv"):
        pair.fit(-2.0 * pair.smax_sq)  # T + lam I is not positive definite


def test_gram_is_reduced_in_place():
    # M = R W^{-1} is the only n-by-n array: dlauum overwrites it with
    # G = M M^T, dsytrd reduces G in place, and dormqr reads the reflectors
    # where dsytrd left them. The slack holds the n^2-byte finiteness mask
    # of G and dsytrd's n-by-32 workspace
    n = 400
    rng = _rng(7)
    system = _ReducedSystem(np.triu(rng.standard_normal((n, n))),
                            rng.standard_normal(n), 0.5, 2000, 30.0)
    w_inv = rng.uniform(0.1, 10.0, n)
    _reweighted_pair(system, w_inv)  # warm LAPACK's first-call buffers
    tracemalloc.start()
    try:
        _reweighted_pair(system, w_inv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * 8 * n * n, peak


def test_threads_get_the_serial_pair_and_lambda():
    rng = _rng(8)
    system = _reduce_system(rng.standard_normal((150, 100)),
                            rng.standard_normal(150))
    w_inv = rng.uniform(0.1, 10.0, 100)
    policies = (LambdaPolicy(kind="dp", nl=0.3), LambdaPolicy(kind="gcv"))

    def solve():
        pair = _reweighted_pair(system, w_inv)
        return (pair.d, pair.e, pair.qtb, pair.c,
                [_select_lambda(p, system, w_inv) for p in policies])

    serial = solve()
    results, errors = [[] for _ in range(8)], []

    def work(slot):
        try:
            for _ in range(3):
                results[slot].append(solve())
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120.0)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert not errors
    for runs in results:
        assert len(runs) == 3
        for run in runs:
            for mine, theirs in zip(run[:4], serial[:4]):
                assert np.array_equal(mine, theirs)
            assert run[4] == serial[4]
