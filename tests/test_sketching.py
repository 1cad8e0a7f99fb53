import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randkrylov.operators import IdentityOperator
from randkrylov.problems import (
    add_noise,
    gen_starfield_deblur,
    gen_subset_selection,
    gen_tomo,
)
from randkrylov.sketching import (
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


def _golub_kahan_reference(A, b, depth):
    """Textbook Golub-Kahan bidiagonalization of (A, b) with full classical
    Gram-Schmidt reorthogonalization (two passes); stops at breakdown."""
    tol = 1e-14 * np.linalg.norm(b)

    def cgs2(q, basis):
        rows = np.array(basis).reshape(-1, q.size)
        for _ in range(2):
            q = q - (rows @ q) @ rows
        return q

    us, vs = [b / np.linalg.norm(b)], []
    for _ in range(depth):
        v = cgs2(A.apply_adjoint(us[-1]), vs)
        if np.linalg.norm(v) <= tol:
            break
        vs.append(v / np.linalg.norm(v))
        u = cgs2(A.apply(vs[-1]), us)
        if np.linalg.norm(u) <= tol:
            break
        us.append(u / np.linalg.norm(u))
    return np.stack(us, axis=1), (np.stack(vs, axis=1) if vs
                                  else np.eye(A.ncols))


def _pilot_problem(name):
    """(A, b, k_max, seed): the criterion-4 problems, the deblurring and
    tomography experiments, and an operator that breaks down at once."""
    if name == "identity":
        return IdentityOperator(12), _rng(5).standard_normal(12), 6, 7
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
                                  "identity"])
def test_flex_sketches_match_reference_pilot(name):
    # S1 samples the left and S2 the right pilot basis, depth min(k_max, 20)
    A, b, k_max, seed = _pilot_problem(name)
    U, V = _golub_kahan_reference(A, b, min(k_max, 20))
    s = max(4 * k_max, U.shape[1] + 1)
    refs = (build_leverage_sketch(estimate_leverage_scores(U), s, seed),
            build_leverage_sketch(estimate_leverage_scores(V), s, seed + 1))
    for got, ref in zip(build_flex_sketches(A, b, k_max, 4, seed), refs):
        assert got.s == s
        np.testing.assert_array_equal(got.selected_rows, ref.selected_rows)
        np.testing.assert_allclose(got.scales, ref.scales, rtol=1e-12)
