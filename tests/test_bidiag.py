"""``bidiag_svd``: sigma and U^T q of a dense matrix, against numpy's dense
SVD, plus its input and binding checks."""

import ctypes
import sys
import threading

import numpy as np
import pytest
from scipy.linalg import cython_lapack

from randkrylov import bidiag
from randkrylov.bidiag import bidiag_svd


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
    # square when rank deficient: in a tall M the null directions of U are
    # any part of the complement of range(M), and their coefficients with it
    m, n = {"tall": (50, 12), "square": (16, 16), "wide": (10, 16),
            "rank_deficient": (16, 16)}[shape]
    M = rng.standard_normal((m, n)) @ np.diag(np.geomspace(1.0, 1e-3, n))
    if shape == "rank_deficient":
        M[:, 7] = M[:, 2]
        M[:, 9] = 0.5 * M[:, 4]
    return M


def _clusters(sigma, rtol=1e-10):
    """Index ranges of the runs of (numerically) equal singular values."""
    cuts = np.flatnonzero(np.diff(sigma) < -rtol * sigma[0]) + 1
    return np.split(np.arange(sigma.size), cuts)


@pytest.mark.parametrize("shape", ["tall", "square", "wide", "rank_deficient",
                                   "clustered"])
def test_bidiag_svd_matches_dense_svd(shape):
    M = _matrix(shape)
    q = _rng(5).standard_normal(M.shape[0])
    U, sv, _ = np.linalg.svd(M, full_matrices=False)
    sigma, beta_t = bidiag_svd(M, q)
    k = min(M.shape)
    assert sigma.shape == beta_t.shape == (k,)
    assert np.all(np.diff(sigma) <= 0.0) and sigma[-1] >= 0.0
    assert np.max(np.abs(sigma - sv)) <= 1e-13 * sv[0]
    ref_t, q_norm = U.T @ q, np.linalg.norm(q)
    groups = _clusters(sv)
    if shape in ("rank_deficient", "clustered"):
        assert max(g.size for g in groups) > 1
    for g in groups:  # within a cluster only the sum of squares is defined
        assert abs(np.linalg.norm(beta_t[g]) - np.linalg.norm(ref_t[g])) \
            <= 1e-12 * q_norm


def test_bidiag_svd_leaves_inputs_alone():
    M = _matrix("tall")
    q = _rng(6).standard_normal(M.shape[0])
    M0, q0 = M.copy(), q.copy()
    bidiag_svd(M, q)
    assert np.array_equal(M, M0) and np.array_equal(q, q0)


@pytest.mark.parametrize("where", ["M", "q"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_bidiag_svd_refuses_non_finite_input_before_lapack(monkeypatch,
                                                           where, bad):
    called = []
    monkeypatch.setitem(bidiag._ROUTINES, "dgebrd",
                        lambda *args: called.append(args))
    M, q = _matrix("square"), np.ones(16)
    (M if where == "M" else q)[3] = bad
    with pytest.raises(np.linalg.LinAlgError):
        bidiag_svd(M, q)
    assert not called


def _capsule(pointer, name):
    new = ctypes.PYFUNCTYPE(ctypes.py_object, ctypes.c_void_p,
                            ctypes.c_char_p, ctypes.c_void_p)(
        ("PyCapsule_New", ctypes.pythonapi))
    return new(pointer, name, None)


def test_binding_refuses_a_capsule_of_another_signature():
    codes = bidiag._SIGNATURES["dgebrd"]
    real = cython_lapack.__pyx_capi__["dgebrd"]
    assert callable(bidiag._bind("dgebrd", codes, real))
    # single precision: float * where double * is expected
    with pytest.raises(ImportError, match="cython_lapack_s \\*"):
        bidiag._bind("sgebrd", codes, cython_lapack.__pyx_capi__["sgebrd"])
    # an ILP64 build: 64-bit integers where int * is expected
    name = bidiag._capsule_name(real).replace(b"int *", b"int64_t *")
    pointer = bidiag._capsule_pointer(real, bidiag._capsule_name(real))
    fake = _capsule(pointer, name)  # the capsule keeps a pointer into name
    with pytest.raises(ImportError, match="int64_t"):
        bidiag._bind("dgebrd", codes, fake)


def test_bidiag_svd_is_thread_safe():
    # ctypes releases the GIL, so two solver threads can be inside LAPACK at
    # once; every buffer is per call, so each must get the serial answer
    M = _rng(8).standard_normal((200, 200))
    q = _rng(9).standard_normal(200)
    serial = bidiag_svd(M, q)
    results, errors = [[], []], []

    def work(slot):
        try:
            for _ in range(4):
                results[slot].append(bidiag_svd(M, q))
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(i,)) for i in (0, 1)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert not errors
    for runs in results:
        assert len(runs) == 4
        for run in runs:
            assert np.array_equal(run[0], serial[0])
            assert np.array_equal(run[1], serial[1])
