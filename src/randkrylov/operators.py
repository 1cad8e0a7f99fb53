"""Matrix-free linear operators used by the solvers and test problems.

All operators are immutable after construction and work in float64. Each one
provides a forward map ``apply`` and an adjoint map ``apply_adjoint`` that are
consistent with each other: <Ax, y> == <x, A^T y> up to rounding.
``RadonOperator`` traces all rays of one angle in one array operation.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse


class DimensionMismatch(ValueError):
    pass


def _check_len(x, expected, what):
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] != expected:
        raise DimensionMismatch(
            f"{what}: expected length {expected}, got shape {x.shape}"
        )
    return x


class LinearOperator:
    """Base class: an m-by-n linear map with forward and adjoint application."""

    kind = "abstract"

    def __init__(self, nrows, ncols):
        if nrows <= 0 or ncols <= 0:
            raise ValueError("operator dimensions must be positive")
        self.nrows = int(nrows)
        self.ncols = int(ncols)

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def apply(self, x):
        x = _check_len(x, self.ncols, f"{self.kind} forward input")
        return self._apply(x)

    def apply_adjoint(self, y):
        y = _check_len(y, self.nrows, f"{self.kind} adjoint input")
        return self._apply_adjoint(y)

    def _apply(self, x):
        raise NotImplementedError

    def _apply_adjoint(self, y):
        raise NotImplementedError

    def materialize(self):
        """Dense matrix built column-by-column; intended for small operators."""
        cols = np.empty((self.nrows, self.ncols))
        e = np.zeros(self.ncols)
        for j in range(self.ncols):
            e[j] = 1.0
            cols[:, j] = self._apply(e)
            e[j] = 0.0
        return cols

    def norm_estimate(self, n_iter=30, seed=0):
        """Power-iteration estimate of the spectral norm."""
        rng = np.random.Generator(np.random.Philox(seed))
        v = rng.standard_normal(self.ncols)
        v /= np.linalg.norm(v)
        sigma = 0.0
        for _ in range(n_iter):
            w = self.apply(v)
            v = self.apply_adjoint(w)
            nv = np.linalg.norm(v)
            if nv == 0.0:
                return 0.0
            sigma = np.sqrt(nv)
            v /= nv
        return sigma


class IdentityOperator(LinearOperator):
    kind = "identity"

    def __init__(self, n):
        super().__init__(n, n)

    def _apply(self, x):
        return x.copy()

    def _apply_adjoint(self, y):
        return y.copy()


class DenseOperator(LinearOperator):
    kind = "dense"

    def __init__(self, matrix):
        matrix = np.ascontiguousarray(matrix, dtype=np.float64)
        if matrix.ndim != 2:
            raise ValueError("dense operator needs a 2-D array")
        super().__init__(*matrix.shape)
        self.matrix = matrix

    def _apply(self, x):
        return self.matrix @ x

    def _apply_adjoint(self, y):
        return self.matrix.T @ y

    def materialize(self):
        return self.matrix.copy()


class DiagonalOperator(LinearOperator):
    kind = "diagonal"

    def __init__(self, entries):
        entries = np.asarray(entries, dtype=np.float64)
        if entries.ndim != 1:
            raise ValueError("diagonal entries must be a vector")
        super().__init__(entries.shape[0], entries.shape[0])
        self.entries = entries

    def _apply(self, x):
        return self.entries * x

    def _apply_adjoint(self, y):
        return self.entries * y

    def inverse(self):
        if np.any(self.entries == 0.0):
            raise ZeroDivisionError("diagonal operator with zero entry is singular")
        return DiagonalOperator(1.0 / self.entries)


class CompositeOperator(LinearOperator):
    """Product of operators, applied right to left like a matrix product."""

    kind = "composite"

    def __init__(self, ops):
        ops = list(ops)
        if not ops:
            raise ValueError("composite needs at least one factor")
        for left, right in zip(ops, ops[1:]):
            if left.ncols != right.nrows:
                raise DimensionMismatch(
                    f"cannot chain {left.kind} ({left.nrows}x{left.ncols}) with "
                    f"{right.kind} ({right.nrows}x{right.ncols})"
                )
        super().__init__(ops[0].nrows, ops[-1].ncols)
        self.ops = ops

    def _apply(self, x):
        for op in reversed(self.ops):
            x = op.apply(x)
        return x

    def _apply_adjoint(self, y):
        for op in self.ops:
            y = op.apply_adjoint(y)
        return y


def gaussian_kernel(sigma):
    """Normalized 2-D Gaussian kernel truncated at 4 sigma (odd size)."""
    if not (np.isfinite(sigma) and sigma > 0.0):
        raise ValueError("blur width must be finite and positive")
    radius = max(1, int(np.ceil(4.0 * sigma)))
    ax = np.arange(-radius, radius + 1, dtype=np.float64)
    g = np.exp(-0.5 * (ax / sigma) ** 2)
    k = np.outer(g, g)
    return k / k.sum()


class Convolution2DOperator(LinearOperator):
    """Periodic 2-D convolution of an nx-by-nx image with a fixed kernel.

    Images are passed as flattened row-major vectors of length nx*nx. The
    operator is circulant-with-circulant-blocks, so the 2-D DFT diagonalizes
    it (Hansen, Nagy & O'Leary, Deblurring Images, SIAM 2006): the kernel is
    wrapped, centered, into an nx-by-nx point spread function once, and each
    apply multiplies the image's spectrum by the PSF's. Kernel entries that
    wrap onto the same pixel are added, so a kernel wider than the image
    still gives true periodic convolution. The adjoint, periodic correlation,
    uses the conjugate spectrum.
    """

    kind = "convolution2d"

    def __init__(self, nx, sigma=None, kernel=None):
        super().__init__(nx * nx, nx * nx)
        self.nx = int(nx)
        if kernel is None:
            if sigma is None:
                raise ValueError("provide sigma or an explicit kernel")
            kernel = gaussian_kernel(sigma)
        kernel = np.asarray(kernel, dtype=np.float64)
        if kernel.shape[0] % 2 == 0 or kernel.shape[1] % 2 == 0:
            raise ValueError("kernel must have odd dimensions")
        self.kernel = kernel
        rows = (np.arange(kernel.shape[0]) - kernel.shape[0] // 2) % self.nx
        cols = (np.arange(kernel.shape[1]) - kernel.shape[1] // 2) % self.nx
        psf = np.zeros((self.nx, self.nx))
        np.add.at(psf, (rows[:, None], cols[None, :]), kernel)
        self._transfer = np.fft.rfft2(psf)
        self._transfer_conj = self._transfer.conj()

    def _filter(self, v, transfer):
        img = v.reshape(self.nx, self.nx)
        out = np.fft.irfft2(np.fft.rfft2(img) * transfer, s=(self.nx, self.nx))
        return out.ravel()

    def _apply(self, x):
        return self._filter(x, self._transfer)

    def _apply_adjoint(self, y):
        return self._filter(y, self._transfer_conj)


def _siddon_rays(nx, theta_rad, offsets):
    """Siddon (Med. Phys. 1985) intersection lengths of the parallel-beam rays
    of one angle with an nx-by-nx grid covering [-nx/2, nx/2]^2.

    Ray r is the line {offsets[r] * normal + t * direction}, direction =
    (cos theta, sin theta). The rays share the grid planes, so their crossing
    parameters t form one (rays x planes) array. Returns (ray, pixel_indices,
    lengths), ordered by ray and then by increasing t, with row-major pixel
    numbering, row 0 at the top of the image (largest y).
    """
    d = np.array([np.cos(theta_rad), np.sin(theta_rad)])
    p0 = offsets[:, None] * np.array([-np.sin(theta_rad), np.cos(theta_rad)])
    half = nx / 2.0
    planes = np.arange(-half, half + 1.0)
    # a grid corner repeats a t; its 0-length segment fails the length mask
    t = np.sort(np.concatenate([(planes - p0[:, axis, None]) / d[axis]
                                for axis in range(2)
                                if abs(d[axis]) > 1e-12], axis=1), axis=1)
    mids = 0.5 * (t[:, :-1] + t[:, 1:])
    lengths = np.diff(t, axis=1)
    ix = np.floor(p0[:, 0, None] + mids * d[0] + half).astype(np.int64)
    iy = np.floor(p0[:, 1, None] + mids * d[1] + half).astype(np.int64)
    inside = (ix >= 0) & (ix < nx) & (iy >= 0) & (iy < nx) & (lengths > 1e-12)
    # row-major with row 0 at top: row = nx - 1 - iy, col = ix
    pix = (nx - 1 - iy[inside]) * nx + ix[inside]
    return np.nonzero(inside)[0], pix, lengths[inside]


class RadonOperator(LinearOperator):
    """Parallel-beam Radon transform with exact ray-pixel intersection lengths.

    Ray offsets are equispaced over the image diagonal. ``_siddon_rays``
    traces the rays one angle at a time, so the sparse matrix's entries come
    angle-major (all rays of the first angle, then the second, ...), then by
    ray, then along the ray.
    """

    kind = "radon"

    def __init__(self, nx, angles_deg, n_rays):
        angles_deg = np.asarray(angles_deg, dtype=np.float64)
        super().__init__(angles_deg.size * n_rays, nx * nx)
        self.nx = int(nx)
        self.angles_deg = angles_deg
        self.n_rays = int(n_rays)
        diag = np.sqrt(2.0) * nx
        offsets = np.linspace(-diag / 2.0, diag / 2.0, n_rays)
        rays, cols, vals = zip(*[_siddon_rays(nx, np.deg2rad(ang), offsets)
                                 for ang in angles_deg])
        rows = [ia * n_rays + ray for ia, ray in enumerate(rays)]
        self._mat = scipy.sparse.csr_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=self.shape)
        self._mat_t = self._mat.T  # a CSC view, built once, not per adjoint

    def _apply(self, x):
        return self._mat @ x

    def _apply_adjoint(self, y):
        return self._mat_t @ y

    def materialize(self):
        return self._mat.toarray()
