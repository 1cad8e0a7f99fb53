import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from randkrylov import sketching
from randkrylov.irn import _reduce_system
from randkrylov.krylov import FlexibleFactorization
from randkrylov.operators import DenseOperator, IdentityOperator
from randkrylov.problems import (
    add_noise,
    gen_starfield_deblur,
    gen_subset_selection,
    gen_tomo,
)
from randkrylov.sketching import (
    _ROW_BLOCK,
    SketchOperator,
    apply_sketch,
    apply_sketch_weighted,
    build_flex_sketches,
    build_leverage_sketch,
    commute_diagonal,
    estimate_leverage_scores,
    identity_sketch,
    measure_distortion,
    span_distortion,
)


def _rng(seed=0):
    return np.random.Generator(np.random.Philox(seed))


def _dense_sketch_matrix(S):
    D = np.zeros((S.s, S.m))
    D[np.arange(S.s), S.selected_rows] = S.scales
    return D


def test_leverage_scores_sum_to_rank_and_bounded():
    rng = _rng(1)
    M = rng.standard_normal((30, 8))
    p = estimate_leverage_scores(M)
    assert abs(p.sum() - 8.0) < 1e-10
    assert np.all(p >= -1e-14) and np.all(p <= 1.0 + 1e-14)


def test_leverage_scores_selection_matrix_oracle():
    # [DERIVED] rows of M are scaled unit vectors: the occupied rows have
    # leverage exactly 1, the zero rows exactly 0
    M = np.zeros((6, 3))
    M[1, 0] = 2.0
    M[3, 1] = -0.5
    M[4, 2] = 7.0
    p = estimate_leverage_scores(M)
    np.testing.assert_allclose(p, [0, 1, 0, 1, 1, 0], atol=1e-14)


def test_leverage_scores_rank_deficient():
    M = np.ones((10, 4))  # rank 1
    p = estimate_leverage_scores(M)
    assert abs(p.sum() - 1.0) < 1e-10


def _spy_pivoted_qr(monkeypatch):
    """The pivoting flag of each SciPy QR taken since the spy was installed."""
    calls = []
    real = scipy.linalg.qr

    def counted(*args, **kwargs):
        calls.append(kwargs.get("pivoting"))
        return real(*args, **kwargs)
    monkeypatch.setattr(scipy.linalg, "qr", counted)
    return calls


def test_leverage_scores_from_R_match_the_pivoted_qr(monkeypatch):
    # over more rows than one 512-row block, and on the R of a QR of [M, b]
    rng = _rng(10)
    M = rng.standard_normal((1100, 30)) * np.exp(rng.standard_normal(30))
    b = rng.standard_normal(1100)
    pivoted = estimate_leverage_scores(M)
    calls = _spy_pivoted_qr(monkeypatch)
    for R in (np.linalg.qr(M, mode="r"),
              _reduce_system(M, b).R):
        p = estimate_leverage_scores(M, R)
        np.testing.assert_allclose(p, pivoted, rtol=1e-12, atol=1e-15)
    assert calls == []


def test_leverage_scores_from_R_solve_one_block_in_place():
    # each block of M R^{-1} is solved in place in one buffer, by the
    # trtrs call that solve_triangular makes, so the scores keep their
    # bits and no second block is alive while the next one is solved
    rng = _rng(12)
    m, n = 2 * _ROW_BLOCK + 300, 100
    M = rng.standard_normal((m, n))
    R = _reduce_system(M, rng.standard_normal(m)).R
    ref = np.concatenate([np.einsum("ij,ij->j", Y, Y) for Y in (
        scipy.linalg.solve_triangular(R, M[i:i + _ROW_BLOCK].T, trans="T")
        for i in range(0, m, _ROW_BLOCK))])
    tracemalloc.start()
    try:
        p = estimate_leverage_scores(M, R)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(p, ref)
    assert peak < 8 * (1.25 * _ROW_BLOCK * n + m)


def test_leverage_scores_from_a_rank_deficient_R_fall_back(monkeypatch):
    # a repeated column: R has a zero (rounding-sized) pivot, so the scores
    # come from the pivoted QR, bit for bit, and sum to the rank
    M = _rng(11).standard_normal((80, 6))
    M[:, 4] = M[:, 1]
    pivoted = estimate_leverage_scores(M)
    calls = _spy_pivoted_qr(monkeypatch)
    p = estimate_leverage_scores(M, np.linalg.qr(M, mode="r"))
    assert calls == [True]
    assert np.array_equal(p, pivoted)
    assert abs(p.sum() - 5.0) < 1e-10
    with pytest.raises(ValueError):
        estimate_leverage_scores(M, np.eye(5))  # not the 6x6 R of M


def test_leverage_scores_rejects_wide_and_zero():
    with pytest.raises(ValueError):
        estimate_leverage_scores(np.ones((3, 5)))
    with pytest.raises(ValueError):
        estimate_leverage_scores(np.zeros((5, 2)))


def test_build_leverage_sketch_deterministic_and_scaled():
    p = np.array([0.5, 0.25, 0.125, 0.125])
    S1 = build_leverage_sketch(p, 64, seed=9)
    S2 = build_leverage_sketch(p, 64, seed=9)
    np.testing.assert_array_equal(S1.selected_rows, S2.selected_rows)
    np.testing.assert_array_equal(S1.scales, S2.scales)
    # [TRIVIAL] scale formula sqrt(sum(p) / (s * p[row]))
    expect = np.sqrt(p.sum() / (64 * p[S1.selected_rows]))
    np.testing.assert_array_equal(S1.scales, expect)


def test_sketch_unbiased_norm():
    # E |Sx|^2 = |x|^2 for leverage sampling; statistical check
    rng = _rng(5)
    M = rng.standard_normal((200, 6))
    p = estimate_leverage_scores(M)
    x = M @ rng.standard_normal(6)
    vals = [np.sum(apply_sketch(build_leverage_sketch(p, 400, seed=s), x) ** 2)
            for s in range(40)]
    assert abs(np.mean(vals) / np.sum(x**2) - 1.0) < 0.05


def test_apply_sketch_scales_its_gather_in_place():
    # one s-by-n array, bit for bit the gather times the scales
    rng = _rng(44)
    M = rng.standard_normal((2000, 400))
    S = build_leverage_sketch(rng.random(2000), 1600, seed=4)
    tracemalloc.start()
    try:
        Y = apply_sketch(S, M)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * 1600 * 400 * 8
    assert np.array_equal(Y, M[S.selected_rows] * S.scales[:, None])


def test_apply_sketch_matches_dense_matrix():
    rng = _rng(2)
    M = rng.standard_normal((20, 5))
    p = estimate_leverage_scores(M)
    S = build_leverage_sketch(p, 30, seed=3)
    D = _dense_sketch_matrix(S)
    np.testing.assert_allclose(apply_sketch(S, M), D @ M, rtol=1e-14)
    v = rng.standard_normal(20)
    np.testing.assert_allclose(apply_sketch(S, v), D @ v, rtol=1e-14)


def test_identity_sketch_is_identity():
    rng = _rng(4)
    M = rng.standard_normal((12, 3))
    S = identity_sketch(12)
    np.testing.assert_array_equal(apply_sketch(S, M), M)
    assert measure_distortion(S, M) == 0.0
    assert span_distortion(S, M) < 1e-12


def test_commute_diagonal_identity():
    rng = _rng(6)
    M = rng.standard_normal((25, 4))
    w = rng.random(25) + 0.5
    S = build_leverage_sketch(np.full(25, 0.04), 40, seed=1)
    wbar = commute_diagonal(S, w)
    lhs = apply_sketch(S, w[:, None] * M)
    rhs = wbar[:, None] * apply_sketch(S, M)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-14)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31))
def test_weighted_sketch_bitwise(seed):
    # bitwise equality of the canonical operation order with sketching the
    # explicitly weighted matrix
    rng = _rng(seed)
    m, k, s = 30, 5, 45
    Z = rng.standard_normal((m, k))
    w = np.exp(rng.standard_normal(m))
    S = build_leverage_sketch(rng.random(m) + 0.01, s, seed=seed)
    lhs = apply_sketch_weighted(S, w, Z)
    rhs = apply_sketch(S, w[:, None] * Z)
    assert np.array_equal(lhs, rhs)
    assert np.array_equal(apply_sketch_weighted(S, w, Z[:, 0]),
                          apply_sketch(S, w * Z[:, 0]))


def test_span_distortion_bounds_measured():
    rng = _rng(8)
    M = rng.standard_normal((300, 4))
    p = estimate_leverage_scores(M)
    S = build_leverage_sketch(p, 120, seed=7)
    emp = measure_distortion(S, M, trials=50, seed=1)
    exact = span_distortion(S, M)
    assert emp <= exact + 1e-12
    assert exact < 1.0


def test_sketch_operator_validation():
    with pytest.raises(ValueError):
        SketchOperator(s=2, m=4, selected_rows=np.array([0, 1]),
                       scales=np.array([1.0, -1.0]))
    with pytest.raises(ValueError):
        SketchOperator(s=2, m=4, selected_rows=np.array([0]),
                       scales=np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        build_leverage_sketch(np.zeros(4), 3, seed=0)
    with pytest.raises(ValueError):
        build_leverage_sketch(np.ones(4), 0, seed=0)


@pytest.mark.parametrize("rows", [[-1, 0], [0, 3], [0.0, 1.0]],
                         ids=["negative", "past_m", "float"])
def test_sketch_operator_refuses_rows_outside_0_to_m(rows):
    # with m = 3, row -1 gathered row 2, and row 3 or a float row raised
    # IndexError only when the sketch was applied
    with pytest.raises(ValueError, match=r"integers in \[0, 3\)"):
        SketchOperator(s=2, m=3, selected_rows=np.array(rows),
                       scales=np.ones(2))
    S = SketchOperator(s=2, m=3, selected_rows=np.array([2, 0]),
                       scales=np.ones(2))
    assert np.array_equal(apply_sketch(S, np.arange(3.0)), [2.0, 0.0])


def _golub_kahan_reference(A, b, depth):
    """Textbook Golub-Kahan bidiagonalization of (A, b) with full classical
    Gram-Schmidt reorthogonalization (two passes); stops at breakdown, when
    a vector keeps at most 1e-10 of its norm."""

    def cgs2(q, basis):
        rows = np.array(basis).reshape(-1, q.size)
        q0 = q
        for _ in range(2):
            q = q - (rows @ q) @ rows
        return q, np.linalg.norm(q) <= 1e-10 * np.linalg.norm(q0)

    us, vs = [b / np.linalg.norm(b)], []
    for _ in range(depth):
        v, down = cgs2(A.apply_adjoint(us[-1]), vs)
        if down:
            break
        vs.append(v / np.linalg.norm(v))
        u, down = cgs2(A.apply(vs[-1]), us)
        if down:
            break
        us.append(u / np.linalg.norm(u))
    return np.stack(us, axis=1), (np.stack(vs, axis=1) if vs
                                  else np.eye(A.ncols))


def _pilot_problem(name):
    """(A, b, k_max, seed): the criterion-4 problems, the deblurring and
    tomography experiments, an operator that breaks down at once (U gets a
    zero column), and a 60x40 A of rank 5, whose V breaks down at step 6."""
    if name == "identity":
        return IdentityOperator(12), _rng(5).standard_normal(12), 6, 7
    if name == "rank5":
        rng = _rng(51)
        M = rng.standard_normal((60, 5)) @ rng.standard_normal((5, 40))
        return DenseOperator(M), rng.standard_normal(60), 10, 53
    inst, k_max, seed = {
        "subset": (lambda: add_noise(gen_subset_selection(200, 50, seed=41),
                                     0.02, 42), 40, 45),
        "starfield32": (lambda: add_noise(gen_starfield_deblur(32, seed=43),
                                          0.01, 44), 40, 45),
        "deblur": (lambda: add_noise(gen_starfield_deblur(
            64, sigma_blur=1.5, seed=21), 0.01, 22), 50, 23),
        "tomo": (lambda: add_noise(gen_tomo(64, n_angles=18, seed=31),
                                   0.01, 32), 30, 33),
    }[name]
    inst = inst()
    return inst.A, inst.b, k_max, seed


@pytest.mark.parametrize("name", ["subset", "starfield32", "deblur", "tomo",
                                  "identity", "rank5"])
def test_flex_sketches_match_reference_pilot(name, monkeypatch):
    # S1 samples the left and S2 the right pilot basis, depth min(k_max, 20),
    # by the pivoted-QR scores of the textbook bases; the pilot's own bases
    # are orthonormal (but for a breakdown's zero column), so their squared
    # row norms serve, and no basis is factored again
    A, b, k_max, seed = _pilot_problem(name)
    U, V = _golub_kahan_reference(A, b, min(k_max, 20))
    s = max(4 * k_max, U.shape[1] + 1)
    refs = (build_leverage_sketch(estimate_leverage_scores(U), s, seed),
            build_leverage_sketch(estimate_leverage_scores(V), s, seed + 1))
    pilots = []

    class Recorded(FlexibleFactorization):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            pilots.append(self)

    monkeypatch.setattr(sketching, "FlexibleFactorization", Recorded)
    monkeypatch.setattr(sketching, "estimate_leverage_scores", None)
    calls = _spy_pivoted_qr(monkeypatch)
    for got, ref in zip(build_flex_sketches(A, b, k_max, 4, seed), refs):
        assert got.s == s
        np.testing.assert_array_equal(got.selected_rows, ref.selected_rows)
        np.testing.assert_allclose(got.scales, ref.scales, rtol=1e-12)
    assert calls == []
    for Q in (pilots[0].U, pilots[0].V):
        Q = Q[:, np.linalg.norm(Q, axis=0) > 0]
        assert np.linalg.norm(Q.T @ Q - np.eye(Q.shape[1])) <= 1e-13
        assert np.abs(np.einsum("ij,ij->i", Q, Q)
                      - estimate_leverage_scores(Q)).max() <= 1e-13


def test_flex_sketches_of_one_row_sample_x_uniformly():
    # m = 1: the pilot takes no step and V is empty, so S2 samples uniform
    # scores, with no n-by-n identity formed or factored
    n, seed = 2000, 9
    A = DenseOperator(_rng(13).standard_normal((1, n)))
    tracemalloc.start()
    try:
        S1, S2 = build_flex_sketches(A, np.array([1.5]), 10, 4, seed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    ref = build_leverage_sketch(np.ones(n), 40, seed + 1)
    assert np.array_equal(S2.selected_rows, ref.selected_rows)
    assert np.array_equal(S2.scales, ref.scales)
    assert np.array_equal(S1.selected_rows, np.zeros(40, dtype=int))
