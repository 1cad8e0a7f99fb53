"""The pair that took the place of ``bidiag_svd``, the bidiagonal SVD of M
that IRN's dp and gcv rules once read: the tridiagonal T = Q^T M M^T Q and
Q^T q of ``_reweighted_pair`` hold M's sigma and U^T q, checked against
numpy's dense SVD, plus its input checks."""

import numpy as np
import pytest

import randkrylov.regparam as regparam
from randkrylov.irn import _ReducedSystem, _reduce_system, _reweighted_pair


def _rng(seed=0):
    return np.random.Generator(np.random.Philox(seed))


def _matrix(shape, seed=4):
    rng = _rng(seed)
    if shape == "clustered":
        # three copies of each of four singular values, a decade apart
        U = np.linalg.qr(rng.standard_normal((40, 12)))[0]
        V = np.linalg.qr(rng.standard_normal((12, 12)))[0]
        sigma = np.repeat(np.geomspace(1.0, 1e-3, 4), 3)
        return (U * sigma) @ V.T
    m, n = {"tall": (50, 12), "square": (16, 16), "wide": (10, 16),
            "rank_deficient": (16, 16)}[shape]
    M = rng.standard_normal((m, n)) @ np.diag(np.geomspace(1.0, 1e-3, n))
    if shape == "rank_deficient":
        M[:, 7] = M[:, 2]
        M[:, 9] = 0.5 * M[:, 4]
    return M


def _system(M, q):
    """(M, q) as they are, as a reduced system."""
    return _ReducedSystem(M, q, 0.0, M.shape[0], float(np.linalg.norm(q)))


def _pair(M, q):
    """The tridiagonal pair of M itself, W = I. A square M is first reduced
    to the triangular R of ``_reduce_system(M, q)``, the only square system
    IRN passes; a tall or wide M is passed as it is, so the pair has a row
    per row of M."""
    square = M.shape[0] == M.shape[1]
    system = _reduce_system(M, q) if square else _system(M, q)
    return _reweighted_pair(system, np.ones(M.shape[1]))


def _clusters(sigma, rtol=1e-10):
    """Index ranges of the runs of (numerically) equal singular values."""
    cuts = np.flatnonzero(np.diff(sigma) < -rtol * sigma[0]) + 1
    return np.split(np.arange(sigma.size), cuts)


@pytest.mark.parametrize("shape", ["tall", "square", "wide", "rank_deficient",
                                   "clustered"])
def test_bidiag_svd_matches_dense_svd(shape):
    M = _matrix(shape)
    q = _rng(5).standard_normal(M.shape[0])
    U, sv, _ = np.linalg.svd(M, full_matrices=True)
    k = M.shape[0]  # G = M M^T has k eigenvalues: sigma^2, then zeros
    sv = np.concatenate([sv, np.zeros(k - sv.size)])
    pair = _pair(M, q)
    assert pair.d.shape == pair.qtb.shape == pair.c.shape == (k,)
    assert np.all(np.diff(pair.c) <= 0.0) and pair.c[-1] >= 0.0
    # the Gram rounds sigma^2 to about eps sigma_max^2
    assert np.max(np.abs(pair.c**2 - sv**2)) <= 1e-13 * sv[0] ** 2
    assert abs(pair.smax_sq - sv[0] ** 2) <= 1e-13 * sv[0] ** 2
    # T = Z diag(sigma^2) Z^T, so U^T q = Z^T Q^T q up to the signs of U's
    # columns and, within a cluster, any rotation
    T = np.diag(pair.d) + np.diag(pair.e, 1) + np.diag(pair.e, -1)
    Z = np.linalg.eigh(T)[1][:, ::-1]
    got_t, ref_t, q_norm = Z.T @ pair.qtb, U.T @ q, np.linalg.norm(q)
    groups = _clusters(sv)
    if shape in ("tall", "rank_deficient", "clustered"):
        assert max(g.size for g in groups) > 1
    for g in groups:  # within a cluster only the sum of squares is defined
        # G's rounding, about eps sigma_max^2, turns a cluster's directions
        # by up to that over the gap of its sigma^2 to the rest
        others = np.delete(sv, g) ** 2
        gap = np.min(np.abs(others - sv[g[0]] ** 2)) if others.size else 1.0
        tol = 1e-12 + 1e-15 * sv[0] ** 2 / gap
        assert abs(np.linalg.norm(got_t[g]) - np.linalg.norm(ref_t[g])) \
            <= tol * q_norm


def test_bidiag_svd_leaves_inputs_alone():
    M = _matrix("tall")
    q = _rng(6).standard_normal(M.shape[0])
    M0, q0 = M.copy(), q.copy()
    _pair(M, q)
    assert np.array_equal(M, M0) and np.array_equal(q, q0)


@pytest.mark.parametrize("where", ["M", "q"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_bidiag_svd_refuses_non_finite_input_before_lapack(monkeypatch,
                                                           where, bad):
    called = []
    for name in ("dsytrd", "dormqr", "dstebz", "dsterf", "dptsv"):
        monkeypatch.setattr(regparam, name,
                            lambda *a, _n=name, **k: called.append(_n))
    M, q = _matrix("square"), np.ones(16)
    (M if where == "M" else q)[3] = bad
    with pytest.raises(np.linalg.LinAlgError):
        _reweighted_pair(_system(M, q), np.ones(16))
    assert not called
