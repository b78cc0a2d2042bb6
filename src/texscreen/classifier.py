"""Linear C-SVC trained by deterministic dual coordinate descent.

The solver maximizes the soft-margin dual over box-constrained variables
alpha_i in [0, C], visiting samples in fixed order with no shrinking and no
random permutation, so identical inputs always produce bit-identical models.
One outer iteration is a full pass over the samples; after each pass the
projected-gradient violation is measured at the current iterate and the
solver stops once its maximum is within tolerance (or at the pass cap).

The weight vector is w = sum_i alpha_i y_i x_i. The bias is recovered from
the margin conditions: the mean of y_i - w.x_i over free support vectors
(0 < alpha_i < C), or the midpoint of the interval the bound samples leave
feasible when no free support vector exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

LABEL_ADULTERATED = 1
LABEL_NORMAL = -1


@dataclass(frozen=True)
class SolverConfig:
    c: float = 1.0
    max_outer_iterations: int = 100
    tolerance: float = 1e-6

    def __post_init__(self):
        if self.c <= 0:
            raise ValueError("penalty c must be positive")
        if self.max_outer_iterations <= 0:
            raise ValueError("max_outer_iterations must be positive")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")


@dataclass(frozen=True, eq=False)
class LinearModel:
    weights: np.ndarray
    bias: float
    converged: bool = True  # the solver met its tolerance before the pass cap


@dataclass(eq=False)
class DualSolution:
    """Solver state at termination, kept for feasibility checks."""

    alpha: np.ndarray
    weights: np.ndarray
    passes: int
    converged: bool
    max_violation: float


def projected_gradient(
    features: np.ndarray, labels: np.ndarray, alpha: np.ndarray, weights: np.ndarray, c: float
) -> np.ndarray:
    """Per-sample optimality violation of the box-constrained dual.

    The gradient of the dual objective in -alpha_i direction is
    g_i = y_i * (w.x_i) - 1; at the box bounds only the infeasible sign
    counts.
    """
    g = labels * (features @ weights) - 1.0
    return np.where(
        alpha <= 0.0, np.minimum(g, 0.0), np.where(alpha >= c, np.maximum(g, 0.0), g)
    )


def solve_dual(features: np.ndarray, labels: np.ndarray, cfg: SolverConfig) -> DualSolution:
    """Run fixed-order coordinate descent on the dual until convergence or cap."""
    x = np.ascontiguousarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    n = x.shape[0]
    xy = x * y[:, None]  # row i is y_i * x_i
    q_diag = np.einsum("ij,ij->i", x, x)
    alpha = np.zeros(n)
    w = np.zeros(x.shape[1])
    c = cfg.c

    passes = 0
    converged = False
    max_violation = np.inf
    while passes < cfg.max_outer_iterations:
        for i in range(n):
            g = float(xy[i] @ w) - 1.0
            a = alpha[i]
            if a <= 0.0 and g >= 0.0:
                continue
            if a >= c and g <= 0.0:
                continue
            if q_diag[i] > 0.0:
                new = min(max(a - g / q_diag[i], 0.0), c)
            else:
                # zero feature vector: the objective is linear in alpha_i
                new = c if g < 0.0 else 0.0
            if new != a:
                w += (new - a) * xy[i]
                alpha[i] = new
        passes += 1
        max_violation = float(np.abs(projected_gradient(x, labels, alpha, w, c)).max())
        if max_violation <= cfg.tolerance:
            converged = True
            break
    return DualSolution(alpha, w, passes, converged, max_violation)


def _bias_from_margins(
    features: np.ndarray, labels: np.ndarray, alpha: np.ndarray, weights: np.ndarray, c: float
) -> float:
    margins = features @ weights
    free = (alpha > 0.0) & (alpha < c)
    if np.any(free):
        return float(np.mean(labels[free] - margins[free]))
    # every alpha sits at a bound; take the midpoint of the bias interval the
    # margin inequalities allow
    lower = -np.inf
    upper = np.inf
    at_zero = alpha <= 0.0
    at_c = alpha >= c
    pos = labels > 0
    lower_candidates = np.concatenate(
        [1.0 - margins[at_zero & pos], -1.0 - margins[at_c & ~pos]]
    )
    upper_candidates = np.concatenate(
        [-1.0 - margins[at_zero & ~pos], 1.0 - margins[at_c & pos]]
    )
    if lower_candidates.size:
        lower = float(lower_candidates.max())
    if upper_candidates.size:
        upper = float(upper_candidates.min())
    if np.isinf(lower) and np.isinf(upper):
        return 0.0
    if np.isinf(lower):
        return upper
    if np.isinf(upper):
        return lower
    return (lower + upper) / 2.0


def train_csvc(
    features: np.ndarray, labels: np.ndarray, cfg: SolverConfig | None = None
) -> LinearModel:
    """Train a linear C-SVC on an (n, d) feature matrix and +1/-1 labels."""
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ValueError("features must form a non-empty (n, d) matrix")
    if not np.all(np.isfinite(x)):
        raise ValueError("features must be finite")
    if y.shape != (x.shape[0],):
        raise ValueError("labels must match the number of samples")
    if not np.all(np.isin(y, (LABEL_ADULTERATED, LABEL_NORMAL))):
        raise ValueError("labels must be +1 or -1")
    if not (np.any(y == LABEL_ADULTERATED) and np.any(y == LABEL_NORMAL)):
        raise ValueError("training set must contain both labels")
    y = y.astype(np.int64)
    cfg = cfg if cfg is not None else SolverConfig()
    solution = solve_dual(x, y, cfg)
    bias = _bias_from_margins(x, y, solution.alpha, solution.weights, cfg.c)
    return LinearModel(solution.weights, bias, solution.converged)


def decision_value(model: LinearModel, x: np.ndarray) -> float:
    """w.x + b for a feature vector of the model's dimension."""
    if x.shape[0] != model.weights.shape[0]:
        raise ValueError(f"model expects {model.weights.shape[0]} values, got {x.shape[0]}")
    value = float(model.weights @ x + model.bias)
    if not math.isfinite(value):  # a NaN or infinite feature value
        raise ValueError("feature values must be finite")
    return value


def predict(model: LinearModel, x: np.ndarray) -> int:
    """+1 (adulterated) when the decision value is >= 0, else -1 (normal).

    A decision value of exactly zero deliberately maps to +1: in a fraud
    screen the conservative error is a false alarm.
    """
    return LABEL_ADULTERATED if decision_value(model, x) >= 0.0 else LABEL_NORMAL
