"""Singular values of a dense M together with U^T q for one vector q, with the
left singular vectors U never formed, the way LAPACK's xGELSS does:
Householder bidiagonalization M = Q_B B P_B^T (dgebrd; Golub & Kahan, 1965),
Q_B^T applied to q (dormbr), then the bidiagonal QR iteration of Demmel &
Kahan (SISC 1990, dbdsqr), which applies its left rotations to that one
vector. IRN's dp and gcv rules read this pair of the n-by-n R W^{-1}; a pair
that needs the singular vectors V takes NumPy's SVD (``regparam``).

``scipy.linalg.lapack`` wraps none of these routines, but
``scipy.linalg.cython_lapack`` exports them as C function pointers with LP64
``int *`` arguments. They are called here through ctypes, which releases the
GIL for each call; every buffer is allocated per call, so threads may call
``bidiag_svd`` at once.
"""

from __future__ import annotations

import ctypes

import numpy as np
from scipy.linalg import cython_lapack

# argument codes: c = char *, i = int *, d = double *
_ARG_TYPES = {"c": ctypes.c_char_p, "i": ctypes.POINTER(ctypes.c_int),
              "d": ctypes.POINTER(ctypes.c_double)}
_ARG_DECLS = {"c": "char *", "i": "int *",
              "d": "__pyx_t_5scipy_6linalg_13cython_lapack_d *"}
_SIGNATURES = {
    "dgebrd": "iididddddii",      # m n a lda d e tauq taup work lwork info
    "dormbr": "ccciiididdidii",   # vect side trans m n k a lda tau c ldc
                                  # work lwork info
    "dbdsqr": "ciiiidddidididi",  # uplo n ncvt nru ncc d e vt ldvt u ldu c
                                  # ldc work info
}

_capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
    ("PyCapsule_GetName", ctypes.pythonapi))
_capsule_pointer = ctypes.PYFUNCTYPE(
    ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi))


def _bind(name, codes, capsule):
    """ctypes function for one cython_lapack capsule. The capsule's name is
    its C signature; any other than the expected LP64 one raises ImportError
    here, before a call could pass mistyped pointers."""
    expected = "void (" + ", ".join(_ARG_DECLS[c] for c in codes) + ")"
    signature = _capsule_name(capsule)
    if signature != expected.encode():
        raise ImportError(f"scipy.linalg.cython_lapack.{name} has signature "
                          f"{signature!r}, expected {expected!r}")
    prototype = ctypes.CFUNCTYPE(None, *(_ARG_TYPES[c] for c in codes))
    return prototype(_capsule_pointer(capsule, signature))


_ROUTINES = {name: _bind(name, codes, cython_lapack.__pyx_capi__[name])
             for name, codes in _SIGNATURES.items()}


def _arg(a):
    """bytes as char *, a float64 array as double *, an int by reference."""
    if isinstance(a, bytes):
        return a
    if isinstance(a, np.ndarray):
        return a.ctypes.data_as(_ARG_TYPES["d"])
    return ctypes.byref(ctypes.c_int(a))


def _lapack(name, *args):
    """Call one routine; its trailing info argument is appended and checked."""
    info = ctypes.c_int(0)
    _ROUTINES[name](*map(_arg, args), ctypes.byref(info))
    if info.value != 0:
        raise np.linalg.LinAlgError(f"{name} failed with info = {info.value}")


def _with_workspace(name, *args):
    """Call a routine that takes (work, lwork) last, with the workspace size
    its query returns."""
    query = np.empty(1)
    _lapack(name, *args, query, -1)
    work = np.empty(max(int(query[0]), 1))
    _lapack(name, *args, work, work.size)


def bidiag_svd(M, q):
    """sigma (descending) and U^T q of the thin SVD M = U diag(sigma) V^T of
    a p-by-n M, k = min(p, n) of each. For a tall M, the part of q outside
    range(M) is dropped, as in U^T q. A non-finite M or q, or a LAPACK
    failure, raises LinAlgError.
    """
    a = np.array(M, dtype=np.float64, order="F")  # dgebrd overwrites it
    c = np.array(q, dtype=np.float64)
    if a.ndim != 2 or c.shape != (a.shape[0],):
        raise ValueError("need a matrix M and a vector q with one entry per "
                         "row of M")
    if not (np.isfinite(a).all() and np.isfinite(c).all()):
        raise np.linalg.LinAlgError("M and q must be finite")
    p, n = a.shape
    k, lda = min(p, n), max(p, 1)
    d, e = np.empty(k), np.empty(max(k - 1, 1))
    tauq, taup = np.empty(k), np.empty(k)
    _with_workspace("dgebrd", p, n, a, lda, d, e, tauq, taup)
    _with_workspace("dormbr", b"Q", b"L", b"T", p, 1, n, a, lda, tauq, c, lda)
    uplo = b"U" if p >= n else b"L"  # B is lower bidiagonal for a wide M
    unused = np.empty(1)
    _lapack("dbdsqr", uplo, k, 0, 0, 1, d, e, unused, 1, unused, 1, c, lda,
            np.empty(4 * k + 1))
    return d, c[:k]
