"""Linear C-SVC trained by deterministic dual coordinate descent, every
leave-one-out fold of a feature table at once.

A fold maximizes the soft-margin dual over box-constrained variables
alpha_j in [0, C] on every sample but the one it holds out. The folds of
one table share the signed Gram matrix Q = (X X^T) o (y y^T), built once,
and keep their iterates as rows of two (folds, n) arrays: alpha, and
G = alpha Q, whose entry G[f, j] = y_j (w_f . x_j) is sample j's signed
margin under fold f's weights. Samples are visited in fixed order with no
shrinking and no random permutation: step i moves alpha[f, i] of every fold
f that does not hold out i, from the gradient G[f, i] - 1, and adds the
moves times row i of Q to G. Identical inputs therefore always produce
bit-identical folds. One outer iteration is a full pass; after each pass
every fold's projected-gradient violation over its training samples is read
from G, and a fold stops on its own once the maximum is within tolerance,
or at the pass cap.

The bias of a fold is recovered from its training margins w.x_j: the mean
of y_j - w.x_j over free support vectors (0 < alpha_j < C), or the midpoint
of the interval the bound samples leave feasible when no free support
vector exists. The held-out decision w_f.x_f + b_f is y_f G[f, f] + b_f, so
no weight vector is formed.
"""

from __future__ import annotations

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
class FoldSolutions:
    """Every fold at termination; row f trains on all samples but held_out[f]."""

    held_out: np.ndarray  # (folds,) sample index, n for a fold that holds none out
    alpha: np.ndarray  # (folds, n); a fold's held-out column stays 0
    margins: np.ndarray  # (folds, n): w_f . x_j
    bias: np.ndarray
    passes: np.ndarray
    converged: np.ndarray  # the fold met its tolerance before the pass cap

    @property
    def decisions(self) -> np.ndarray:
        """w_f . x_f + b_f for each fold's held-out sample."""
        return self.margins[np.arange(self.held_out.size), self.held_out] + self.bias


def projected_gradient(gradient: np.ndarray, alpha: np.ndarray, c: float) -> np.ndarray:
    """Per-variable optimality violation of the box-constrained dual.

    `gradient` is y_j (w.x_j) - 1, the dual objective's gradient in the
    -alpha_j direction; at the box bounds only the infeasible sign counts.
    """
    return np.where(
        alpha <= 0.0,
        np.minimum(gradient, 0.0),
        np.where(alpha >= c, np.maximum(gradient, 0.0), gradient),
    )


def solve_folds(
    features: np.ndarray,
    labels: np.ndarray,
    held_out: np.ndarray,
    cfg: SolverConfig | None = None,
) -> FoldSolutions:
    """Run fixed-order coordinate descent on every fold's dual at once.

    Fold f trains on every row of the (n, d) `features` but row
    `held_out[f]`; an index of n holds nothing out.
    """
    cfg = cfg if cfg is not None else SolverConfig()
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    n = x.shape[0]
    q = (x @ x.T) * np.outer(y, y)
    q_diag = q.diagonal().tolist()
    c = cfg.c
    held_out = np.asarray(held_out)
    final_alpha = np.zeros((held_out.size, n))
    final_grad = np.zeros((held_out.size, n))
    passes = np.zeros(held_out.size, dtype=np.int64)
    converged = np.zeros(held_out.size, dtype=bool)

    active = np.arange(held_out.size)  # the folds still iterating
    alpha = np.zeros((held_out.size, n))
    grad = np.zeros((held_out.size, n))  # G = alpha Q
    done_passes = 0
    while active.size:
        held = held_out[active]
        # the row of `alpha` whose fold holds out sample i, or -1
        holder = np.full(n + 1, -1)
        holder[held] = np.arange(active.size)
        holder = holder.tolist()
        for i in range(n):
            a = alpha[:, i]
            g = grad[:, i] - 1.0
            if q_diag[i] > 0.0:
                # the clip leaves alpha at a bound whose gradient points out
                # of the box, so it also applies the rule that skips them
                new = np.minimum(np.maximum(a - g / q_diag[i], 0.0), c)
            else:
                # zero feature vector: the objective is linear in alpha_i
                new = np.where(g < 0.0, c, np.where(g > 0.0, 0.0, a))
            if holder[i] >= 0:
                new[holder[i]] = 0.0
            delta = new - a
            if delta.any():
                alpha[:, i] = new
                grad += np.multiply.outer(delta, q[i])
        done_passes += 1
        training = held[:, None] != np.arange(n)
        violation = np.where(
            training, np.abs(projected_gradient(grad - 1.0, alpha, c)), 0.0
        ).max(axis=1)
        met = violation <= cfg.tolerance
        done = met | (done_passes >= cfg.max_outer_iterations)
        if done.any():
            rows = active[done]
            final_alpha[rows] = alpha[done]
            final_grad[rows] = grad[done]
            passes[rows] = done_passes
            converged[rows] = met[done]
            active, alpha, grad = active[~done], alpha[~done], grad[~done]
    margins = final_grad * y
    bias = _bias_from_margins(held_out, y, final_alpha, margins, c)
    return FoldSolutions(held_out, final_alpha, margins, bias, passes, converged)


def _bias_from_margins(
    held_out: np.ndarray, labels: np.ndarray, alpha: np.ndarray, margins: np.ndarray, c: float
) -> np.ndarray:
    training = held_out[:, None] != np.arange(labels.size)
    slack = labels - margins
    free = training & (alpha > 0.0) & (alpha < c)
    free_count = free.sum(axis=1)
    free_mean = np.where(free, slack, 0.0).sum(axis=1) / np.maximum(free_count, 1)
    # with every alpha at a bound, take the midpoint of the bias interval the
    # margin inequalities allow; a non-empty training set bounds one side
    at_zero = training & (alpha <= 0.0)
    at_c = training & (alpha >= c)
    pos = labels > 0
    lower = np.where(at_zero & pos | at_c & ~pos, slack, -np.inf).max(axis=1)
    upper = np.where(at_zero & ~pos | at_c & pos, slack, np.inf).min(axis=1)
    lower = np.where(np.isinf(lower), upper, lower)
    upper = np.where(np.isinf(upper), lower, upper)
    return np.where(free_count > 0, free_mean, (lower + upper) / 2.0)


def train_csvc(
    features: np.ndarray, labels: np.ndarray, cfg: SolverConfig | None = None
) -> LinearModel:
    """Train a linear C-SVC on an (n, d) feature matrix and +1/-1 labels.

    The single fold of `solve_folds` that holds nothing out.
    """
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
    sol = solve_folds(x, y, np.array([x.shape[0]]), cfg)
    weights = x.T @ (sol.alpha[0] * y)
    return LinearModel(weights, float(sol.bias[0]), bool(sol.converged[0]))
