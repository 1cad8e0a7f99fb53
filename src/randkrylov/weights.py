"""Smoothed lp reweighting: weight matrices, the nonlinear objective, and its
quadratic tangent majorants.

Two objective variants are tracked. ``mm_consistent`` is
``|Ax-b|^2 + (2*lam/p) * sum((x_i^2+tau^2)^(p/2))``; it is the functional
that the quadratic majorants are tangent to and globally above, so all
monotonicity checks run against it. ``paper_literal`` keeps the
solution-dependent weighted form ``|Ax-b|^2 + lam*|W(x) x|^2`` for reporting.
A sparsity transform Psi enters only through the operator: the functional
with |Psi x| is this one on A Psi^{-1} in the variable Psi x.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class WeightSpec:
    p: float = 1.0
    tau: float = 1e-10

    def __post_init__(self):
        if not (0.0 < self.p <= 2.0):
            raise ValueError("p must lie in (0, 2]")
        if not 0.0 < self.tau < np.inf:
            raise ValueError("tau must be positive and finite")


def compute_weights(z, spec):
    """Diagonal weight entries (z_i^2 + tau^2)^((p-2)/4).

    Evaluated via hypot(z, tau)^((p-2)/2), which is stable for very small and
    very large z.
    """
    z = np.asarray(z, dtype=np.float64)
    return np.hypot(z, spec.tau) ** ((spec.p - 2.0) / 2.0)


def smoothed_penalty(z, spec):
    """sum((z_i^2 + tau^2)^(p/2)), evaluated stably."""
    z = np.asarray(z, dtype=np.float64)
    return float(np.sum(np.hypot(z, spec.tau) ** spec.p))


@dataclass(frozen=True)
class ObjectiveSpec:
    weight: WeightSpec
    lam: float
    variant: str = "mm_consistent"

    def __post_init__(self):
        if self.lam < 0.0:
            raise ValueError("lambda must be non-negative")
        if self.variant not in ("mm_consistent", "paper_literal"):
            raise ValueError(f"unknown objective variant {self.variant!r}")


def _penalized(fit, x, spec):
    """The data fit |Ax-b|^2 plus the spec variant's penalty at x."""
    ws = spec.weight
    if spec.variant == "paper_literal":
        w = compute_weights(x, ws)
        return fit + spec.lam * float(np.sum((w * x) ** 2))
    return fit + (2.0 * spec.lam / ws.p) * smoothed_penalty(x, ws)


def objective_value(A, b, x, spec):
    """Value of the regularized objective at x, per the spec's variant."""
    x = np.asarray(x, dtype=np.float64)
    r = A.apply(x) - b
    return _penalized(float(r @ r), x, spec)


def objective_values(A, b, x, weight, lam, fit=None):
    """(mm_consistent, paper_literal) objectives at x from one data fit
    |Ax-b|^2: the caller's ``fit``, else that of one apply of A, with which
    each equals its objective_value bit for bit."""
    x = np.asarray(x, dtype=np.float64)
    if fit is None:
        r = A.apply(x) - b
        fit = float(r @ r)
    return tuple(_penalized(fit, x, ObjectiveSpec(weight, lam, variant))
                 for variant in ("mm_consistent", "paper_literal"))


def majorant_constant(x_prev, spec):
    """Additive constant that makes the quadratic majorant tangent to the
    mm_consistent objective at the expansion point."""
    ws = spec.weight
    w = compute_weights(x_prev, ws)
    return (2.0 * spec.lam / ws.p) * smoothed_penalty(x_prev, ws) - spec.lam * float(
        np.sum((w * x_prev) ** 2)
    )


def majorant_value(A, b, x, x_prev, spec):
    """Quadratic tangent majorant of the mm_consistent objective, expanded at
    x_prev, evaluated at x."""
    x = np.asarray(x, dtype=np.float64)
    x_prev = np.asarray(x_prev, dtype=np.float64)
    w = compute_weights(x_prev, spec.weight)
    r = A.apply(x) - b
    return (
        float(r @ r)
        + spec.lam * float(np.sum((w * x) ** 2))
        + majorant_constant(x_prev, spec)
    )


def sketched_majorant_value(S1, S2, A, b, w_k, x, lam):
    """Sketched quadratic functional |S1 (Ax - b)|^2 + lam * |S2 (w_k * x)|^2,
    the functional behind the sketch-and-solve monotonicity diagnostics."""
    from .sketching import apply_sketch

    x = np.asarray(x, dtype=np.float64)
    r = A.apply(x) - b
    s1r = apply_sketch(S1, r)
    s2wx = apply_sketch(S2, np.asarray(w_k) * x)
    return float(s1r @ s1r) + lam * float(s2wx @ s2wx)
