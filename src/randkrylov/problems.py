"""Deterministic generators for the three test problems at desk scale, plus
exact-level noise injection. All randomness flows through seeded Philox
streams so fixtures are bit-reproducible."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .operators import Convolution2DOperator, DenseOperator, RadonOperator

# Modified Shepp-Logan head phantom: ten ellipses as
# (intensity, semi-axis a, semi-axis b, center x, center y, angle deg),
# on the unit square [-1, 1]^2.
SHEPP_LOGAN_ELLIPSES = (
    (1.0, 0.69, 0.92, 0.0, 0.0, 0.0),
    (-0.8, 0.6624, 0.874, 0.0, -0.0184, 0.0),
    (-0.2, 0.11, 0.31, 0.22, 0.0, -18.0),
    (-0.2, 0.16, 0.41, -0.22, 0.0, 18.0),
    (0.1, 0.21, 0.25, 0.0, 0.35, 0.0),
    (0.1, 0.046, 0.046, 0.0, 0.1, 0.0),
    (0.1, 0.046, 0.046, 0.0, -0.1, 0.0),
    (0.1, 0.046, 0.023, -0.08, -0.605, 0.0),
    (0.1, 0.023, 0.023, 0.0, -0.606, 0.0),
    (0.1, 0.023, 0.046, 0.06, -0.605, 0.0),
)


@dataclass(frozen=True)
class ProblemInstance:
    A: object
    b: np.ndarray
    b_exact: np.ndarray
    x_true: np.ndarray
    nl: float
    seed: int
    descriptor: str


def _rng(seed):
    return np.random.Generator(np.random.Philox(seed))


def gen_subset_selection(m, n, rho=0.95, bern_p=0.1, seed=0):
    """Tall regression matrix with AR(1)-correlated predictors and a sparse
    0/1 coefficient vector."""
    if not (0.0 <= rho < 1.0):
        raise ValueError("correlation must lie in [0, 1)")
    if not (0.0 < bern_p < 1.0):
        raise ValueError("Bernoulli parameter must lie in (0, 1)")
    rng = _rng(seed)
    g = rng.standard_normal((m, n))
    A = np.empty((m, n))
    A[:, 0] = g[:, 0]
    scale = np.sqrt(1.0 - rho**2)
    for j in range(1, n):
        A[:, j] = rho * A[:, j - 1] + scale * g[:, j]
    x_true = (rng.random(n) < bern_p).astype(np.float64)
    op = DenseOperator(A)
    b_exact = op.apply(x_true)
    return ProblemInstance(
        A=op, b=b_exact.copy(), b_exact=b_exact, x_true=x_true, nl=0.0,
        seed=int(seed),
        descriptor=f"subset_selection m={m} n={n} rho={rho} bern_p={bern_p}",
    )


def gen_starfield_deblur(nx, density=0.072, sigma_blur=2.0, seed=0):
    """Sparse star field blurred by a periodic truncated-Gaussian kernel."""
    if nx < 16:
        raise ValueError("image side must be at least 16")
    if not 0.0 <= density <= 1.0:
        raise ValueError("star density must lie in [0, 1]")
    rng = _rng(seed)
    n = nx * nx
    n_stars = int(np.ceil(density * n))
    x_true = np.zeros(n)
    if n_stars > 0:
        pix = rng.choice(n, size=n_stars, replace=False)
        x_true[pix] = 0.1 + 0.9 * rng.random(n_stars)
    A = Convolution2DOperator(nx, sigma=sigma_blur)
    b_exact = A.apply(x_true)
    return ProblemInstance(
        A=A, b=b_exact.copy(), b_exact=b_exact, x_true=x_true, nl=0.0,
        seed=int(seed),
        descriptor=f"starfield nx={nx} density={density} sigma={sigma_blur}",
    )


def shepp_logan(nx):
    """Modified Shepp-Logan phantom rasterized on an nx-by-nx grid by pixel-
    center ellipse membership. Values in [0, 1]."""
    coords = (np.arange(nx) + 0.5) / nx * 2.0 - 1.0
    X, Y = np.meshgrid(coords, -coords)  # row 0 at the top
    img = np.zeros((nx, nx))
    for val, a, bax, x0, y0, ang in SHEPP_LOGAN_ELLIPSES:
        th = np.deg2rad(ang)
        xr = (X - x0) * np.cos(th) + (Y - y0) * np.sin(th)
        yr = -(X - x0) * np.sin(th) + (Y - y0) * np.cos(th)
        img[(xr / a) ** 2 + (yr / bax) ** 2 <= 1.0] += val
    return img


def gen_tomo(nx, n_angles=18, n_rays=None, seed=0):
    """Parallel-beam CT of the Shepp-Logan phantom with equispaced angles in
    (0, 180] degrees."""
    if nx < 16:
        raise ValueError("image side must be at least 16")
    if n_rays is None:
        n_rays = int(np.ceil(np.sqrt(2.0) * nx)) + 1
    angles = 180.0 * np.arange(1, n_angles + 1) / n_angles
    A = RadonOperator(nx, angles, n_rays)
    x_true = shepp_logan(nx).ravel()
    b_exact = A.apply(x_true)
    return ProblemInstance(
        A=A, b=b_exact.copy(), b_exact=b_exact, x_true=x_true, nl=0.0,
        seed=int(seed),
        descriptor=f"tomo nx={nx} angles={n_angles} rays={n_rays}",
    )


def add_noise(inst, nl, seed):
    """Gaussian noise scaled to exactly the requested relative level."""
    if not (np.isfinite(nl) and nl >= 0.0):
        raise ValueError("noise level must be finite and non-negative")
    if nl == 0.0:
        return replace(inst, b=inst.b_exact.copy(), nl=0.0)
    norm_b = np.linalg.norm(inst.b_exact)
    if norm_b == 0.0:
        raise ValueError("cannot add relative noise to a zero signal")
    g = _rng(seed).standard_normal(inst.b_exact.shape[0])
    eps = (nl * norm_b / np.linalg.norm(g)) * g
    return replace(inst, b=inst.b_exact + eps, nl=float(nl))
