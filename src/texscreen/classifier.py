"""Linear C-SVC trained by deterministic dual coordinate descent, every
leave-one-out fold of a feature table at once.

Fold f holds out sample f. It maximizes the soft-margin dual over
box-constrained variables alpha_j in [0, u_fj]: its bound u_fj is C, or
0 for j = f, so the bound matrix is C off the diagonal and 0 on it.
The folds of one table share the signed Gram matrix Q = (X X^T) o (y y^T)
and keep their iterates as rows of a state matrix (alpha, 1). Samples are
visited in fixed order with no shrinking or random permutation: step i
sets each fold's alpha_i to clip((1 - sum_{j != i} Q_ij alpha_j) / Q_ii,
0, u_fi) (Hsieh et al. 2008), the state's dot product with row i of a
per-table step matrix (-Q_ij / Q_ii, 0 on the diagonal, then 1 / Q_ii),
clipped to the fold's box. So a step is one per-fold dot product and
two clamps, on per-coordinate views of the state and bounds built once
per set of active folds. A row whose Q_ii is below the smallest normal
float, so that 1 / Q_ii would overflow, has step row (0, ..., 0, C): its
entries are below 1.5e-154 in size, so its gradient, -1 plus terms of
that order times C |x_j|, is negative (exactly -1 on a zero row) and
alpha_i = C is its optimum. The features are L1-normalised histograms,
whose smallest non-zero entry squared is a normal float, so there only a
zero row takes this step. After each pass G = alpha Q is formed:
G[f, j] = y_j (w_f . x_j) is sample j's signed margin under fold f. With
g = G - 1, a fold stops at the pass cap or once its largest projected
gradient is within tolerance (Fan et al. 2008): g_j where alpha_j may
fall (is above 0), -g_j where it may rise (is below its bound). A
held-out variable, bound 0, can do neither and never counts. Dot products
and G are taken one fold at a time, never as a 2-D matrix product, whose
rounding depends on the batch: a fold rounds alike however many other
folds are still iterating.

The bias of a fold is recovered from its training margins w.x_j: the mean
of y_j - w.x_j over free support vectors, which may both fall and rise,
or, when none exists, the midpoint of the interval that the variables
which may only rise or only fall leave feasible. The held-out decision
w_f.x_f + b_f is y_f G[f, f] + b_f, so no weight vector is formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SolverConfig:
    """Solver settings; a numpy integer pass cap becomes `int`."""

    c: float = 1.0
    max_outer_iterations: int = 100
    tolerance: float = 1e-6

    def __post_init__(self):
        for name, value in (("penalty c", self.c), ("tolerance", self.tolerance)):
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, not {value!r}")
        cap = self.max_outer_iterations
        if isinstance(cap, bool) or not isinstance(cap, (int, np.integer)) or cap < 1:
            raise ValueError(f"max_outer_iterations must be positive and an integer, not {cap!r}")
        object.__setattr__(self, "max_outer_iterations", int(cap))


@dataclass(eq=False)
class FoldSolutions:
    """Every fold at termination; row f trains on all samples but sample f."""

    alpha: np.ndarray  # (n, n); the diagonal, each fold's held-out alpha, stays 0
    margins: np.ndarray  # (n, n): w_f . x_j
    bias: np.ndarray
    passes: np.ndarray
    converged: np.ndarray  # the fold met its tolerance before the pass cap

    @property
    def decisions(self) -> np.ndarray:
        """w_f . x_f + b_f for each fold's held-out sample f."""
        return self.margins.diagonal() + self.bias


def projected_gradient(gradient: np.ndarray, alpha: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Each fold's largest optimality violation of its box-constrained dual.

    `gradient` is y_j (w.x_j) - 1, the dual objective's gradient in the
    -alpha_j direction, and `upper` each fold's bounds. A variable above 0
    may fall and one below its bound may rise; a held-out variable, bound
    0, can do neither.
    """
    return np.maximum(gradient * (alpha > 0.0), -gradient * (alpha < upper)).max(axis=1)


def solve_folds(
    features: np.ndarray,
    labels: np.ndarray,
    cfg: SolverConfig = SolverConfig(),
) -> FoldSolutions:
    """Run fixed-order coordinate descent on the duals of all n leave-one-out
    folds of the (n, d) `features` at once: fold f trains on every row but f.
    """
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    n = x.shape[0]
    q = (x @ x.T) * np.outer(y, y)
    c = cfg.c
    diagonal = q.diagonal()
    scaled = diagonal >= np.finfo(np.float64).tiny
    # (alpha, 1) . step[i] is alpha_i before the clip
    step = np.zeros((n, n + 1))
    step[scaled, :n] = q[scaled] / -diagonal[scaled, None]
    step[scaled, n] = 1.0 / diagonal[scaled]
    step[np.arange(n), np.arange(n)] = 0.0
    step[~scaled, n] = c
    final_alpha = np.zeros((n, n))
    final_grad = np.zeros((n, n))
    passes = np.zeros(n, dtype=np.int64)
    converged = np.zeros(n, dtype=bool)

    # each fold's bound on each alpha_i: C, or 0 for the sample it holds out
    bounds = np.full((n, n), c)
    np.fill_diagonal(bounds, 0.0)
    # the folds still iterating, with their bounds and their state
    active = np.arange(n)
    fold_bounds = bounds
    state = np.zeros((n, n + 1))  # (alpha, 1)
    state[:, n] = 1.0
    vecdot, maximum, minimum = np.vecdot, np.maximum, np.minimum
    done_passes = 0
    while active.size:
        # (step row, alpha column, bound column) of each coordinate, as views
        # made once for each set of active folds
        alpha = state[:, :n]
        steps = list(zip(step, alpha.T, fold_bounds.T.copy()))
        v, zero = np.empty(active.size), np.zeros(active.size)
        while True:
            for row, column, bound in steps:
                vecdot(state, row, out=v)
                maximum(v, zero, out=v)
                minimum(v, bound, out=column)
            done_passes += 1
            # G = alpha Q one fold at a time, so a fold rounds alike in any batch
            grad = np.matmul(alpha[:, None, :], q)[:, 0, :]
            met = projected_gradient(grad - 1.0, alpha, fold_bounds) <= cfg.tolerance
            done = met | (done_passes >= cfg.max_outer_iterations)
            if done.any():
                break
        rows = active[done]
        final_alpha[rows] = alpha[done]
        final_grad[rows] = grad[done]
        passes[rows] = done_passes
        converged[rows] = met[done]
        left = ~done
        active, state, fold_bounds = active[left], state[left], fold_bounds[left]
    margins = final_grad * y
    bias = _bias_from_margins(y, final_alpha, margins, bounds)
    return FoldSolutions(final_alpha, margins, bias, passes, converged)


def _bias_from_margins(
    labels: np.ndarray, alpha: np.ndarray, margins: np.ndarray, bounds: np.ndarray
) -> np.ndarray:
    slack = labels - margins
    falls = alpha > 0.0
    rises = alpha < bounds
    free = falls & rises
    free_count = free.sum(axis=1)
    free_mean = np.where(free, slack, 0.0).sum(axis=1) / np.maximum(free_count, 1)
    # with every alpha at a bound, take the midpoint of the bias interval the
    # margin inequalities allow; a non-empty training set bounds one side
    pos = labels > 0
    lower = np.where(rises & pos | falls & ~pos, slack, -np.inf).max(axis=1)
    upper = np.where(rises & ~pos | falls & pos, slack, np.inf).min(axis=1)
    lower = np.where(np.isinf(lower), upper, lower)
    upper = np.where(np.isinf(upper), lower, upper)
    return np.where(free_count > 0, free_mean, (lower + upper) / 2.0)
