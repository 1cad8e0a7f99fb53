import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randkrylov.operators import DenseOperator
from randkrylov.sketching import identity_sketch
from randkrylov.weights import (
    ObjectiveSpec,
    WeightSpec,
    compute_weights,
    majorant_constant,
    majorant_value,
    objective_value,
    objective_values,
    sketched_majorant_value,
    smoothed_penalty,
)


def _rng(seed=0):
    return np.random.Generator(np.random.Philox(seed))


def test_weight_spec_validation():
    with pytest.raises(ValueError):
        WeightSpec(p=0.0)
    with pytest.raises(ValueError):
        WeightSpec(p=2.5)
    with pytest.raises(ValueError):
        WeightSpec(tau=0.0)


@pytest.mark.parametrize("p", [0.5, 1.0, 1.5, 2.0])
def test_compute_weights_formula(p):
    # [DERIVED] direct evaluation of (z^2 + tau^2)^((p-2)/4)
    spec = WeightSpec(p=p, tau=1e-3)
    z = np.array([-2.0, -0.1, 0.0, 1e-3, 0.5, 10.0])
    expect = (z**2 + spec.tau**2) ** ((p - 2.0) / 4.0)
    np.testing.assert_allclose(compute_weights(z, spec), expect, rtol=1e-12)


def test_weights_p2_are_unity():
    spec = WeightSpec(p=2.0, tau=1e-8)
    z = np.array([0.0, 1.0, -1e6, 1e-12])
    np.testing.assert_array_equal(compute_weights(z, spec), np.ones(4))


def test_weights_stable_for_tiny_tau():
    spec = WeightSpec(p=1.0, tau=1e-300)
    w = compute_weights(np.array([0.0, 1.0]), spec)
    assert np.isfinite(w[1]) and w[0] > 1e70  # tau^{-1/2}


def test_smoothed_penalty_formula():
    spec = WeightSpec(p=1.5, tau=0.01)
    z = np.array([0.3, -0.7, 2.0])
    expect = np.sum((z**2 + spec.tau**2) ** (spec.p / 2.0))
    np.testing.assert_allclose(smoothed_penalty(z, spec), expect, rtol=1e-12)


def test_objective_variants():
    rng = _rng(1)
    A = DenseOperator(rng.standard_normal((8, 5)))
    b = rng.standard_normal(8)
    x = rng.standard_normal(5)
    ws = WeightSpec(p=1.0, tau=0.05)
    lam = 0.7
    r = A.apply(x) - b
    mm = objective_value(A, b, x, ObjectiveSpec(ws, lam, "mm_consistent"))
    lit = objective_value(A, b, x, ObjectiveSpec(ws, lam, "paper_literal"))
    expect_mm = r @ r + (2 * lam / ws.p) * np.sum(
        (x**2 + ws.tau**2) ** (ws.p / 2))
    w = (x**2 + ws.tau**2) ** ((ws.p - 2) / 4)
    expect_lit = r @ r + lam * np.sum((w * x) ** 2)
    np.testing.assert_allclose(mm, expect_mm, rtol=1e-12)
    np.testing.assert_allclose(lit, expect_lit, rtol=1e-12)


class _CountingDense(DenseOperator):
    def __init__(self, matrix):
        super().__init__(matrix)
        self.applies = 0

    def _apply(self, x):
        self.applies += 1
        return super()._apply(x)


def test_objective_values_apply_once_and_match():
    rng = _rng(4)
    A = _CountingDense(rng.standard_normal((9, 5)))
    b = rng.standard_normal(9)
    x = rng.standard_normal(5)
    ws = WeightSpec(p=1.0, tau=0.05)
    mm, lit = objective_values(A, b, x, ws, 0.7)
    assert A.applies == 1
    for value, variant in ((mm, "mm_consistent"), (lit, "paper_literal")):
        spec = ObjectiveSpec(ws, 0.7, variant)
        assert value == objective_value(A, b, x, spec)
    with pytest.raises(ValueError):
        objective_values(A, b, x, ws, -1.0)


@pytest.mark.parametrize("p", [0.5, 1.0, 1.5, 2.0])
def test_majorant_tangency(p):
    rng = _rng(2)
    A = DenseOperator(rng.standard_normal((10, 6)))
    b = rng.standard_normal(10)
    x = rng.standard_normal(6)
    spec = ObjectiveSpec(WeightSpec(p=p, tau=0.01), 0.4)
    f = objective_value(A, b, x, spec)
    q = majorant_value(A, b, x, x, spec)
    assert abs(q - f) <= 1e-12 * max(abs(f), 1.0)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31),
       st.sampled_from([0.5, 1.0, 1.5, 2.0]))
def test_majorant_dominates(seed, p):
    rng = _rng(seed)
    A = DenseOperator(rng.standard_normal((7, 4)))
    b = rng.standard_normal(7)
    x_prev = 2.0 * rng.standard_normal(4)
    x = 2.0 * rng.standard_normal(4)
    spec = ObjectiveSpec(WeightSpec(p=p, tau=0.02), 0.9)
    f = objective_value(A, b, x, spec)
    q = majorant_value(A, b, x, x_prev, spec)
    assert q >= f - 1e-10 * max(abs(f), 1.0)


def test_majorant_constant_closes_the_gap():
    rng = _rng(3)
    spec = ObjectiveSpec(WeightSpec(p=1.0, tau=0.05), 1.3)
    z = rng.standard_normal(6)
    w = compute_weights(z, spec.weight)
    c = majorant_constant(z, spec)
    penalty_mm = (2 * spec.lam / spec.weight.p) * smoothed_penalty(z, spec.weight)
    penalty_quad = spec.lam * np.sum((w * z) ** 2)
    np.testing.assert_allclose(penalty_quad + c, penalty_mm, rtol=1e-12)


def test_sketched_majorant_identity_sketch():
    rng = _rng(4)
    A = DenseOperator(rng.standard_normal((9, 5)))
    b = rng.standard_normal(9)
    x = rng.standard_normal(5)
    w = rng.random(5) + 0.2
    lam = 0.6
    S1, S2 = identity_sketch(9), identity_sketch(5)
    got = sketched_majorant_value(S1, S2, A, b, w, x, lam)
    r = A.apply(x) - b
    expect = r @ r + lam * np.sum((w * x) ** 2)
    np.testing.assert_allclose(got, expect, rtol=1e-12)


def test_objective_spec_validation():
    with pytest.raises(ValueError):
        ObjectiveSpec(WeightSpec(), -1.0)
    with pytest.raises(ValueError):
        ObjectiveSpec(WeightSpec(), 1.0, "bogus")
