"""Linear C-SVC trained by deterministic dual coordinate descent, every
leave-one-out fold of a feature table at once.

A fold maximizes the soft-margin dual over box-constrained variables
alpha_j in [0, C] on every sample but the one it holds out. The folds of
one table share the signed Gram matrix Q = (X X^T) o (y y^T) and keep
their iterates as rows of a state matrix (alpha, 1). Samples are visited
in fixed order with no shrinking or random permutation: step i sets each
fold's alpha_i to clip((1 - sum_{j != i} Q_ij alpha_j) / Q_ii, 0, C)
(Hsieh et al. 2008), the state's dot product with row i of a per-table
step matrix (-Q_ij / Q_ii, 0 on the diagonal, then 1 / Q_ii), clipped to
[0, C], or to [0, 0] for the fold holding out i. A zero feature row has
Q_ii = 0 and step row (0, ..., 0, C): its row of Q is exactly 0, so its
gradient is always -1 and alpha_i = C is its optimum. The features are
L1-normalised histograms, whose smallest non-zero entry squared cannot
underflow, so Q_ii = 0 only on a zero row. After each pass G = alpha Q is
formed: G[f, j] = y_j (w_f . x_j) is sample j's signed margin under fold f,
and a fold stops once its projected-gradient violation is within
tolerance, or at the pass cap. Dot products and G are taken one fold at a
time, never as a 2-D matrix product, whose rounding depends on the batch: a
fold is bit-identical alone or among others.

The bias of a fold is recovered from its training margins w.x_j: the mean
of y_j - w.x_j over free support vectors (0 < alpha_j < C), or the midpoint
of the interval the bound samples leave feasible when no free support
vector exists. The held-out decision w_f.x_f + b_f is y_f G[f, f] + b_f, so
no weight vector is formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SolverConfig:
    c: float = 1.0
    max_outer_iterations: int = 100
    tolerance: float = 1e-6

    def __post_init__(self):
        # `not x > 0` also rejects NaN
        if not self.c > 0:
            raise ValueError("penalty c must be positive")
        if not self.max_outer_iterations > 0:
            raise ValueError("max_outer_iterations must be positive")
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")


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
    `held_out[f]`; an index of n holds nothing out. A fold's result does
    not depend on which other folds share the call.
    """
    cfg = cfg if cfg is not None else SolverConfig()
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    n = x.shape[0]
    q = (x @ x.T) * np.outer(y, y)
    c = cfg.c
    diagonal = q.diagonal()
    scaled = diagonal > 0.0
    # (alpha, 1) . step[i] is alpha_i before the clip
    step = np.zeros((n, n + 1))
    step[scaled, :n] = q[scaled] / -diagonal[scaled, None]
    step[scaled, n] = 1.0 / diagonal[scaled]
    step[np.arange(n), np.arange(n)] = 0.0
    step[~scaled, n] = c
    held_out = np.asarray(held_out)
    final_alpha = np.zeros((held_out.size, n))
    final_grad = np.zeros((held_out.size, n))
    passes = np.zeros(held_out.size, dtype=np.int64)
    converged = np.zeros(held_out.size, dtype=bool)

    # the folds still iterating, with their training masks, their upper
    # bounds on each alpha_i (0 where the fold holds i out) and their state
    active = np.arange(held_out.size)
    training = held_out[:, None] != np.arange(n)
    upper = np.where(training, c, 0.0).T.copy()
    state = np.zeros((held_out.size, n + 1))  # (alpha, 1)
    state[:, n] = 1.0
    done_passes = 0
    while active.size:
        alpha = state[:, :n]
        v = np.empty(active.size)
        for row, column, bound in zip(step, alpha.T, upper):
            np.vecdot(state, row, out=v)
            np.maximum(v, 0.0, out=v)
            np.minimum(v, bound, out=column)
        done_passes += 1
        # G = alpha Q one fold at a time, so a fold rounds alike in any batch
        grad = np.matmul(alpha[:, None, :], q)[:, 0, :]
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
            left = ~done
            active, state = active[left], state[left]
            training, upper = training[left], upper[:, left]
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
