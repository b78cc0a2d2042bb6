"""Linear C-SVC, every leave-one-out fold of a feature table solved exactly.

Fold f holds out sample f. It minimizes the soft-margin dual
1/2 a'Qa - 1'a over box-constrained variables alpha_j in [0, u_fj]: its
bound u_fj is C, or 0 for j = f, so the bound matrix is C off the diagonal
and 0 on it. The folds of one table share the signed Gram matrix
Q = (X X^T) o (y y^T). G = alpha Q is formed one fold at a time, never as
a 2-D matrix product, whose rounding depends on the batch: G[f, j] =
y_j (w_f . x_j) is sample j's signed margin under fold f. With g = G - 1,
a fold is optimal once its largest projected gradient is within tolerance
(`_TOLERANCE`; `projected_gradient`, Fan et al. 2008): g_j where alpha_j
may fall (is above 0), -g_j where it may rise (is below its bound). A
held-out variable, bound 0, can do neither and never counts.

The folds are solved in two steps:

1. A warm-started primal active set (Nocedal & Wright 2006,
   Algorithm 16.3). Each variable is free or held at a bound. The
   minimiser over the free variables F, the bound ones B held, solves
   Q_FF alpha_F = 1 - Q_FB alpha_B. If it lies in the box, alpha moves
   there and the bound variable of largest violation is released; else
   alpha steps toward it until a free variable meets its bound, which is
   then held. The problem on every sample is solved first, from
   alpha = C. Each fold starts from that solution with its held-out alpha
   set to 0 ("alpha seeding", DeCoste & Wagstaff 2000). The folds advance
   in lockstep rounds, each making one change of its free set per round;
   a round groups the faces by size k and solves each group's k x k faces
   in one stacked call, which rounds as each fold's own solve would.
   Where the seed stays at its box corner, as at C=1, each fold starts at
   its own, and a fold optimal there ends at its first check.
2. The final alpha from the final partition. A fold's alpha_F is the
   solve of its final partition, so its bits depend on that partition
   alone, not on the warm start or on other folds. One more projected-
   gradient check of every fold sets `converged`.

Q_FF is singular where free rows repeat, are 0 or outnumber the feature
dimension. Then the solve fails, or returns rounding blown up along the
null space, a step with (almost) no curvature. The step goes instead along
the part of -g_F outside the range of Q_FF, a direction of linear descent,
or, when there is none, along a null vector, to the nearest bound. Its
sign follows a slope that can be mere rounding, so where it holds a free
variable at its bound to a 0 step, which can cycle, and its negation does
not, the step takes the negation. C times each row sum of |Q| bounds every
gradient, so features whose bound overflows are rejected, and eps times
the largest bound, a gradient's rounding, joins the tolerance.
`max_outer_iterations` caps a fold's KKT checks: the first, from the warm
start, plus one per change of its free set. The all-sample solve has the
same cap; stopping it early only gives a poorer warm start. A fold at the
cap keeps its last feasible alpha.

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

# KKT tolerance on each fold's largest projected gradient, plus eps C times
# the largest row sum of |Q|. Every fold is exact, so it only absorbs
# rounding: on 6 synthetic seeds at 64x48, 50x37 and 300x225, every kind, C up
# to 1e4, converged folds end at violations of at most 9.6e-13, and a fold
# whose optimum is off its box corner fails the test there by 1.0e-4 or more.
# The frozen set's GRAY folds at 64x48 and C=1e9 end at up to 8.7e-8 (38 of 40
# would not converge at 1e-9); at 0.5, 20 of its 40 LBP folds at 300x225 and
# C=10 would keep a non-optimal corner. On 30 Gaussian tables (n 40-150, d 3,
# C=1; 2,759 folds) the eps term converges every fold at feature scales 1e4 to
# 1e8, as on 3 more such sets; half of it leaves 2 folds unconverged at 1e8,
# and none of it 511 at 1e4 and all at 1e6.
_TOLERANCE = 1e-6
# Curvature below this share of the largest diagonal entry of Q_FF counts as
# 0: far above the rounding of a null direction (a few m eps) and far below
# the frozen tables' smallest eigenvalue share (3e-7 at 300x225)
_SINGULAR = 1e-12


@dataclass(frozen=True)
class SolverConfig:
    """Solver settings; `max_outer_iterations` caps each fold's KKT checks
    (`FoldSolutions.passes`), and a numpy integer cap becomes `int`."""

    c: float = 1.0
    # uncapped, folds took at most 10 KKT checks on the benchmark, 20 on synthetic
    # sets up to n = 200 (any kind, C = 10 to 1e5), 189 on random overlapping tables
    # at n = 100-200 and 22 (1.83 per sample) on 8,849 tables at n = 3-13 and C up
    # to 1e30; no fold has cycled below C = 1e150, where the cap can still bind
    max_outer_iterations: int = 1000

    def __post_init__(self):
        if not (math.isfinite(self.c) and self.c > 0):
            raise ValueError(f"penalty c must be positive and finite, not {self.c!r}")
        cap = self.max_outer_iterations
        if isinstance(cap, bool) or not isinstance(cap, (int, np.integer)) or cap < 1:
            raise ValueError(f"max_outer_iterations must be positive and an integer, not {cap!r}")
        object.__setattr__(self, "max_outer_iterations", int(cap))


@dataclass(eq=False)
class FoldSolutions:
    """Every fold at termination; row f trains on all samples but sample f."""

    alpha: np.ndarray  # (n, n); the diagonal, each fold's held-out alpha, is 0
    margins: np.ndarray  # (n, n): w_f . x_j
    bias: np.ndarray
    # KKT checks from the warm start: 1, plus 1 per free-set change; 1 does
    # not mean a fold ended at its box corner, which only alpha shows
    passes: np.ndarray
    # largest projected gradient within the tolerance by the cap on passes
    converged: np.ndarray

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
    """Solve the duals of all n leave-one-out folds of the (n, d) `features`:
    fold f trains on every row but f. A fold is `converged` when its largest
    projected gradient is within 1e-6 plus eps C times the largest row sum
    of |Q|, which bounds the rounding of a gradient.
    """
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if x.ndim != 2 or y.shape != x.shape[:1]:
        raise ValueError("labels must be one per row of an (n, d) feature matrix")
    n = x.shape[0]
    if n < 2:
        raise ValueError(f"leave-one-out needs at least 2 samples, not {n}")
    if not (np.abs(y) == 1.0).all():
        raise ValueError("labels must be +1 or -1")
    if not np.isfinite(x).all():
        raise ValueError("features must be finite")
    c = cfg.c
    with np.errstate(over="ignore", invalid="ignore"):
        q = (x @ x.T) * np.outer(y, y)
        scale = c * np.abs(q).sum(axis=1).max()
    if not np.isfinite(scale):
        raise ValueError("features are too large: their Gram matrix overflows")
    tolerance = _TOLERANCE + np.finfo(np.float64).eps * scale
    # each fold's bound on each alpha_i: C, or 0 for the sample it holds out
    bounds = np.full((n, n), c)
    np.fill_diagonal(bounds, 0.0)
    changes = cfg.max_outer_iterations - 1
    # the problem on every sample, from alpha = C, seeds each fold
    seed, seed_free = np.full((1, n), c), np.zeros((1, n), dtype=bool)
    _active_set(q, seed, np.full((1, n), c), seed_free, changes, tolerance)
    alpha, free = np.where(bounds > 0.0, seed, 0.0), seed_free & (bounds > 0.0)
    passes = 1 + _active_set(q, alpha, bounds, free, changes, tolerance)
    # G = alpha Q one fold at a time, so a fold rounds alike in any batch
    grad = np.matmul(alpha[:, None, :], q)[:, 0, :]
    converged = projected_gradient(grad - 1.0, alpha, bounds) <= tolerance
    margins = grad * y
    bias = _bias_from_margins(y, alpha, margins, bounds)
    return FoldSolutions(alpha, margins, bias, passes, converged)


def _active_set(
    q: np.ndarray,
    alpha: np.ndarray,
    upper: np.ndarray,
    free: np.ndarray,
    changes: int,
    tolerance: float,
) -> np.ndarray:
    """Primal active set for min 1/2 a'Qa - 1'a over 0 <= a <= `upper`, for
    each row of the (m, n) arrays, all rows in lockstep rounds.

    Moves each row of the feasible `alpha`, whose variables outside `free`
    sit at a bound, and of `free` in place, with at most `changes` changes
    of its free set. Returns the number of changes each row made. A round
    solves the faces of each free-set size in one stacked call.
    """
    used = np.zeros(len(alpha), dtype=np.int64)
    live = np.ones(len(alpha), dtype=bool)
    while live.any():
        rows = np.flatnonzero(live)
        count = free[rows].sum(axis=1)
        release = []
        for k in np.flatnonzero(np.bincount(count)):
            g = rows[count == k]
            if k == 0:
                release.append(g)
                continue
            idx = np.nonzero(free[g])[1].reshape(-1, k)
            faces = q[idx[:, :, None], idx[:, None, :]]
            rhs = 1.0 - np.matmul(q[idx], np.where(free[g], 0.0, alpha[g])[:, :, None])[:, :, 0]
            target = _solve(faces, rhs)
            a, u = alpha[g[:, None], idx], upper[g[:, None], idx]
            inside = ((target >= 0.0) & (target <= u)).all(axis=1)
            alpha[g[inside, None], idx[inside]] = target[inside]
            release.append(g[inside])
            capped = ~inside & (used[g] == changes)
            live[g[capped]] = False
            step = ~(inside | capped)
            if not step.any():
                continue
            g, idx, faces, a, u = g[step], idx[step], faces[step], a[step], u[step]
            with np.errstate(over="ignore", invalid="ignore"):  # an overflowed step is flat
                direction = target[step] - a
                # flat, (almost) no curvature along it: a singular Q_FF's solve
                # returned rounding blown up along its null space, need not descend
                row, col = direction[:, None, :], direction[:, :, None]
                curvature = np.matmul(np.matmul(row, faces), col)[:, 0, 0]
                length = np.matmul(row, col)[:, 0, 0]
                largest = faces.diagonal(axis1=1, axis2=2).max(axis=1)
                flat = ~(curvature > _SINGULAR * largest * length)
            for i in np.flatnonzero(flat):
                d = _null_direction(faces[i], q[idx[i]] @ alpha[g[i]] - 1.0)
                # > 0 where d leaves the box at once (a 0 step can cycle), < 0 where -d would
                out = np.sign(d) * ((a[i] == u[i]) * 1.0 - (a[i] == 0.0))
                direction[i] = -d if (out > 0.0).any() and not (out < 0.0).any() else d
            # move along it until the first free variable meets its bound,
            # which then leaves the free set
            falls, rises = direction < 0.0, direction > 0.0
            ratio = np.full(direction.shape, np.inf)
            with np.errstate(over="ignore"):
                ratio[falls] = a[falls] / -direction[falls]
                ratio[rises] = (u[rises] - a[rises]) / direction[rises]
            at, j = np.arange(len(g)), ratio.argmin(axis=1)
            a = np.clip(a + ratio[at, j, None] * direction, 0.0, u)
            a[at, j] = np.where(rises[at, j], u[at, j], 0.0)
            alpha[g[:, None], idx] = a
            free[g, idx[at, j]] = False
            used[g] += 1
        # at the minimiser over the free variables: release the bound
        # variable whose gradient points furthest into the box
        g = np.concatenate(release)
        grad = np.matmul(alpha[g, None, :], q)[:, 0, :] - 1.0
        violation = np.maximum(grad * (alpha[g] > 0.0), -grad * (alpha[g] < upper[g]))
        violation[free[g]] = 0.0
        j = violation.argmax(axis=1)
        done = (violation.max(axis=1) <= tolerance) | (used[g] == changes)
        live[g[done]] = False
        free[g[~done], j[~done]] = True
        used[g[~done]] += 1
    return used


def _solve(faces: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Each face's solve of Q_FF alpha_F = `rhs`, NaN for an exactly singular
    one, which fails the box test and takes `_null_direction`."""
    try:
        return np.linalg.solve(faces, rhs[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:  # a singular face fails its stack: solve one by one
        if len(faces) == 1:
            return np.full(rhs.shape, np.nan)
        return np.concatenate([_solve(faces[i : i + 1], rhs[i : i + 1]) for i in range(len(faces))])


def _null_direction(face: np.ndarray, gradient: np.ndarray) -> np.ndarray:
    """A direction of the free variables along which Q_FF is 0 and the
    objective does not rise: the part of -g_F outside the range of Q_FF,
    which is linear descent, or, when that is 0, a null vector of Q_FF.
    Eigenvalues below the `_SINGULAR` share count as 0, the smallest always.
    """
    values, vectors = np.linalg.eigh(face)
    null = vectors[:, : max(1, int((values <= _SINGULAR * face.diagonal().max()).sum()))]
    direction = null @ (null.T @ -gradient)
    if not direction.any():
        direction = null[:, 0]
    # a power of 2 takes it to a max-norm in [0.5, 1), where the sign test
    # cannot overflow; the step uses it only up to scale and rounds alike
    direction = np.ldexp(direction, -np.frexp(np.abs(direction).max())[1])
    return -direction if gradient @ direction > 0.0 else direction


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
