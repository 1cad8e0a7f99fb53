import numpy as np

from randkrylov.baselines import fista_solve
from randkrylov.operators import DenseOperator
from randkrylov.weights import WeightSpec, objective_values


class _CountingDense(DenseOperator):
    def __init__(self, matrix):
        super().__init__(matrix)
        self.applies = self.adjoints = 0

    def _apply(self, x):
        self.applies += 1
        return super()._apply(x)

    def _apply_adjoint(self, y):
        self.adjoints += 1
        return super()._apply_adjoint(y)


def _problem():
    rng = np.random.Generator(np.random.Philox(8))
    M = rng.standard_normal((40, 15))
    x_true = np.where(rng.random(15) < 0.3, 1.0, 0.0)
    return M, M @ x_true + 0.02 * rng.standard_normal(40)


def _fista_reference(M, b, lam, n_iter):
    """Textbook FISTA, applying A to both v and x at every iteration."""
    L = DenseOperator(M).norm_estimate() ** 2
    step = 1.0 / (2.0 * L)
    x = v = np.zeros(M.shape[1])
    t = 1.0
    xs = []
    for _ in range(n_iter):
        u = v - step * 2.0 * M.T @ (M @ v - b)
        x_new = np.sign(u) * np.maximum(np.abs(u) - 2.0 * lam * step, 0.0)
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        v = x_new + ((t - 1.0) / t_new) * (x_new - x)
        x, t = x_new, t_new
        xs.append(x)
    return xs


def test_fista_applies_A_and_its_adjoint_once_per_iteration():
    M, b = _problem()
    probe = _CountingDense(M)
    probe.norm_estimate()
    A = _CountingDense(M)
    res = fista_solve(A, b, 0.3, n_iter=25)
    assert len(res.iterates) == 25
    assert A.applies == probe.applies + 25
    assert A.adjoints == probe.adjoints + 25


def test_fista_matches_the_two_apply_iteration():
    M, b = _problem()
    lam, ws = 0.3, WeightSpec(p=1.0, tau=1e-10)
    res = fista_solve(DenseOperator(M), b, lam, n_iter=60, weight=ws)
    ref = _fista_reference(M, b, lam, 60)
    for x, x_ref, row in zip(res.iterates, ref, res.trace):
        np.testing.assert_allclose(x, x_ref, rtol=1e-12, atol=1e-14)
        mm, lit = objective_values(DenseOperator(M), b, x, ws, lam)
        assert abs(row.objective_mm - mm) <= 1e-12 * mm
        assert abs(row.objective_literal - lit) <= 1e-12 * lit
