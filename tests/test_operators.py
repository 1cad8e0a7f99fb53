import numpy as np
import pytest
import scipy.ndimage
import scipy.sparse
from hypothesis import example, given, settings
from hypothesis import strategies as st

from randkrylov.operators import (
    CompositeOperator,
    Convolution2DOperator,
    DenseOperator,
    DiagonalOperator,
    DimensionMismatch,
    IdentityOperator,
    RadonOperator,
    TriangularOperator,
    _siddon_rays,
    gaussian_kernel,
)


def _rng(seed=0):
    return np.random.Generator(np.random.Philox(seed))


def _adjoint_gap(op, rng, trials=20):
    # |<Ax, y> - <x, A^T y>| over max(|Ax||y|, |x||A^T y|), a scale that
    # does not collapse when Ax and y are nearly orthogonal
    worst = 0.0
    for _ in range(trials):
        x = rng.standard_normal(op.ncols)
        y = rng.standard_normal(op.nrows)
        Ax, Aty = op.apply(x), op.apply_adjoint(y)
        scale = max(np.linalg.norm(Ax) * np.linalg.norm(y),
                    np.linalg.norm(x) * np.linalg.norm(Aty), 1e-30)
        worst = max(worst, abs(Ax @ y - x @ Aty) / scale)
    return worst


@pytest.mark.parametrize("make", [
    lambda r: IdentityOperator(17),
    lambda r: DenseOperator(r.standard_normal((13, 7))),
    lambda r: DiagonalOperator(r.standard_normal(11) + 3.0),
    lambda r: CompositeOperator([DenseOperator(r.standard_normal((9, 6))),
                                 DiagonalOperator(r.random(6) + 0.5)]),
    lambda r: Convolution2DOperator(12, sigma=1.3),
    lambda r: RadonOperator(10, np.array([20.0, 75.0, 130.0]), 15),
    lambda r: TriangularOperator(r.standard_normal((9, 9))),
])
def test_adjoint_consistency(make):
    rng = _rng(42)
    op = make(rng)
    assert _adjoint_gap(op, rng) < 1e-12


@pytest.mark.parametrize("make", [
    lambda r: DenseOperator(r.standard_normal((8, 5))),
    lambda r: DiagonalOperator(r.standard_normal(6) + 2.5),
    lambda r: Convolution2DOperator(8, sigma=0.9),
    lambda r: RadonOperator(6, np.array([10.0, 100.0]), 9),
    lambda r: TriangularOperator(r.standard_normal((7, 7))),
])
def test_materialize_matches_apply(make):
    rng = _rng(7)
    op = make(rng)
    M = op.materialize()
    for _ in range(5):
        x = rng.standard_normal(op.ncols)
        np.testing.assert_allclose(op.apply(x), M @ x, rtol=1e-12, atol=1e-12)
        y = rng.standard_normal(op.nrows)
        np.testing.assert_allclose(op.apply_adjoint(y), M.T @ y,
                                   rtol=1e-12, atol=1e-12)


def test_triangular_operator_reads_only_the_upper_triangle():
    rng = _rng(8)
    R = rng.standard_normal((6, 6))
    op = TriangularOperator(R)  # the strict lower triangle is ignored
    x, y = rng.standard_normal(6), rng.standard_normal(6)
    np.testing.assert_allclose(op.apply(x), np.triu(R) @ x, rtol=1e-12,
                               atol=1e-12)
    np.testing.assert_allclose(op.apply_adjoint(y), np.triu(R).T @ y,
                               rtol=1e-12, atol=1e-12)
    assert op.R is R  # a C-ordered float64 R is not copied
    with pytest.raises(ValueError, match="square"):
        TriangularOperator(np.ones((3, 4)))


def test_dimension_mismatch_raises():
    op = DenseOperator(np.ones((3, 2)))
    with pytest.raises(DimensionMismatch):
        op.apply(np.ones(3))
    with pytest.raises(DimensionMismatch):
        op.apply_adjoint(np.ones(2))
    with pytest.raises(DimensionMismatch):
        CompositeOperator([DenseOperator(np.ones((3, 2))),
                           DenseOperator(np.ones((3, 2)))])


def test_diagonal_inverse():
    d = DiagonalOperator(np.array([2.0, -4.0, 0.5]))
    x = np.array([1.0, 1.0, 1.0])
    np.testing.assert_allclose(d.inverse().apply(d.apply(x)), x)
    with pytest.raises(ZeroDivisionError):
        DiagonalOperator(np.array([1.0, 0.0])).inverse()


def test_norm_estimate_matches_spectral_norm():
    rng = _rng(3)
    M = rng.standard_normal((40, 25))
    op = DenseOperator(M)
    exact = np.linalg.norm(M, 2)
    assert abs(op.norm_estimate(n_iter=200) - exact) < 1e-6 * exact


def test_gaussian_kernel_normalized_odd_symmetric():
    for sigma in (0.6, 1.0, 2.5):
        k = gaussian_kernel(sigma)
        assert k.shape[0] % 2 == 1 and k.shape == (k.shape[0], k.shape[0])
        assert abs(k.sum() - 1.0) < 1e-14
        np.testing.assert_allclose(k, k[::-1, ::-1])
        np.testing.assert_allclose(k, k.T)


def test_convolution_constant_image_invariant():
    # periodic convolution with a normalized kernel preserves constants
    op = Convolution2DOperator(10, sigma=1.7)
    x = np.full(100, 3.25)
    np.testing.assert_allclose(op.apply(x), x, rtol=1e-13)


@pytest.mark.parametrize("nx, kernel", [
    (12, gaussian_kernel(1.3)),
    # non-symmetric: a flipped orientation would not match
    (10, _rng(5).standard_normal((5, 3))),
    # 9x9 kernel on an 8x8 image: entries wrap onto the same pixels
    (8, gaussian_kernel(0.9)),
])
def test_convolution_matches_ndimage_wrap(nx, kernel):
    # [DERIVED] scipy.ndimage's mode="wrap" convolution and correlation are
    # the periodic blur and its adjoint, computed directly in the pixel domain
    op = Convolution2DOperator(nx, kernel=kernel)
    rng = _rng(11)
    for _ in range(3):
        img = rng.standard_normal((nx, nx))
        conv = scipy.ndimage.convolve(img, kernel, mode="wrap")
        corr = scipy.ndimage.correlate(img, kernel, mode="wrap")
        np.testing.assert_allclose(op.apply(img.ravel()), conv.ravel(),
                                   rtol=0, atol=1e-13)
        np.testing.assert_allclose(op.apply_adjoint(img.ravel()), corr.ravel(),
                                   rtol=0, atol=1e-13)


def _siddon_ray(nx, theta_rad, offset):
    # one ray through the per-angle kernel
    _, pix, lens = _siddon_rays(nx, theta_rad, np.array([offset]))
    return pix, lens


def test_siddon_horizontal_ray_oracle():
    # [DERIVED] ray y = 0.5 through a 4x4 unit grid: crosses the second row
    # from the top (iy = 2 -> row 1), one unit length per pixel
    pix, lens = _siddon_ray(4, 0.0, 0.5)
    order = np.argsort(pix)
    np.testing.assert_array_equal(pix[order], [4, 5, 6, 7])
    np.testing.assert_allclose(lens[order], [1.0, 1.0, 1.0, 1.0], atol=1e-12)


def test_siddon_vertical_ray_oracle():
    # [DERIVED] theta = 90 deg, offset -1.5: line x = 1.5, column ix = 3
    pix, lens = _siddon_ray(4, np.pi / 2.0, -1.5)
    order = np.argsort(pix)
    np.testing.assert_array_equal(pix[order], [3, 7, 11, 15])
    np.testing.assert_allclose(lens[order], [1.0, 1.0, 1.0, 1.0], atol=1e-12)


def test_siddon_diagonal_total_length():
    # [DERIVED] 45-degree ray through the center of an nx-square: chord
    # length nx*sqrt(2)
    for nx in (4, 7):
        _, lens = _siddon_ray(nx, np.pi / 4.0, 0.0)
        np.testing.assert_allclose(lens.sum(), nx * np.sqrt(2.0), rtol=1e-12)


def test_siddon_ray_outside_grid_is_empty():
    pix, lens = _siddon_ray(4, 0.0, 10.0)
    assert pix.size == 0 and lens.size == 0


def test_radon_row_ordering_angle_major():
    # [DERIVED] flat image of ones: each row integrates the chord length of
    # its ray, so row sums equal the per-ray chord lengths
    nx, n_rays = 8, 13
    op = RadonOperator(nx, np.array([0.0]), n_rays)
    ones = np.ones(nx * nx)
    sino = op.apply(ones)
    # theta=0 rays are horizontal lines y = offset: chord nx inside the grid
    offsets = np.linspace(-np.sqrt(2) * nx / 2, np.sqrt(2) * nx / 2, n_rays)
    inside = np.abs(offsets) < nx / 2
    np.testing.assert_allclose(sino[inside], nx, rtol=1e-12)
    np.testing.assert_allclose(sino[~inside], 0.0, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 30), st.integers(2, 30), st.integers(0, 2**31))
@example(m=4, n=10, seed=135)  # nearly orthogonal Ax and y
def test_dense_adjoint_property(m, n, seed):
    rng = _rng(seed)
    op = DenseOperator(rng.standard_normal((m, n)))
    assert _adjoint_gap(op, rng, trials=3) < 1e-12


def _siddon_row_reference(nx, theta_rad, offset):
    # reference tracer: one ray at a time, np.unique over its crossing
    # parameters
    d = np.array([np.cos(theta_rad), np.sin(theta_rad)])
    nrm = np.array([-np.sin(theta_rad), np.cos(theta_rad)])
    p0 = offset * nrm
    half = nx / 2.0
    ts = []
    for axis in range(2):
        if abs(d[axis]) > 1e-12:
            planes = np.arange(-half, half + 1.0)
            ts.append((planes - p0[axis]) / d[axis])
    t = np.unique(np.concatenate(ts))
    mids = 0.5 * (t[:-1] + t[1:])
    pts = p0[None, :] + mids[:, None] * d[None, :]
    lengths = np.diff(t)
    ix = np.floor(pts[:, 0] + half).astype(np.int64)
    iy = np.floor(pts[:, 1] + half).astype(np.int64)
    inside = (ix >= 0) & (ix < nx) & (iy >= 0) & (iy < nx) & (lengths > 1e-12)
    ix, iy, lengths = ix[inside], iy[inside], lengths[inside]
    return (nx - 1 - iy) * nx + ix, lengths


def _radon_reference(nx, angles_deg, n_rays):
    angles_deg = np.asarray(angles_deg, dtype=np.float64)
    diag = np.sqrt(2.0) * nx
    offsets = np.linspace(-diag / 2.0, diag / 2.0, n_rays)
    rows, cols, vals = [], [], []
    for ia, ang in enumerate(angles_deg):
        th = np.deg2rad(ang)
        for ir, off in enumerate(offsets):
            pix, lens = _siddon_row_reference(nx, th, off)
            rows.extend([ia * n_rays + ir] * pix.size)
            cols.extend(pix.tolist())
            vals.extend(lens.tolist())
    return scipy.sparse.csr_matrix(
        (vals, (rows, cols)), shape=(angles_deg.size * n_rays, nx * nx))


@pytest.mark.parametrize("nx, angles, n_rays", [
    # experiment 3: 64x64, 18 angles in (0, 180], ceil(sqrt(2) nx) + 1 rays
    (64, 180.0 * np.arange(1, 19) / 18, 92),
    # odd nx: a ray at offset 0 runs along pixel centres, not grid lines
    (17, [0.0, 45.0, 90.0, 135.0, 180.0], 25),
    # an axis drops out at 0, 90 and 180 degrees; at 45 degrees some rays
    # cross grid corners, where np.unique merges a repeated t
    (16, [0.0, 45.0, 90.0, 180.0, 30.0], 5),
    # 40 rays over the diagonal: many miss the grid and give empty rows
    (7, [0.0, 45.0, 90.0, 180.0, 12.5], 40),
])
def test_radon_matrix_equals_per_ray_reference(nx, angles, n_rays):
    got = RadonOperator(nx, angles, n_rays)._mat
    ref = _radon_reference(nx, angles, n_rays)
    assert got.shape == ref.shape
    for part in ("indptr", "indices", "data"):
        a, b = getattr(got, part), getattr(ref, part)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), part


def test_radon_adjoint_equals_the_transpose_product_bitwise():
    # the adjoint applies a transpose taken once at construction; it must
    # give exactly what a fresh transpose of the matrix gives
    op = RadonOperator(16, np.array([0.0, 30.0, 45.0, 90.0, 150.0]), 23)
    rng = _rng(12)
    for _ in range(3):
        y = rng.standard_normal(op.nrows)
        assert op.apply_adjoint(y).tobytes() == (op._mat.T @ y).tobytes()
