"""Shared fixtures and independent oracles for the test suite.

The oracles deliberately avoid the library's code paths: the LBP reference
walks pixels one by one in pure Python, and `feature_reference` histograms
its codes of one image at a time; the PNM token reference walks bytes
one by one, the separator searches enumerate candidate geometries
exhaustively, and the LOOCV reference trains one fold at a time with the
per-fold dual solver the batched one replaced. `solve_folds_reference` is
the batched coordinate-descent pass loop the exact solver replaced: run to
a tight tolerance it is the exact solver's oracle, and a fold it ends at
its box corner after one pass the exact solver must match bit for bit.
`solve_folds_per_fold` is the exact solver with one active set per fold,
which the lockstep rounds replaced: it must match them bit for bit.
`train_on_all` and `report_from_confusion` are no oracles: they call the
library.
"""

import itertools
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

import texscreen
from texscreen.classifier import (
    _SINGULAR,
    _TOLERANCE,
    FoldSolutions,
    SolverConfig,
    _bias_from_margins as fold_bias,
    _null_direction,
    projected_gradient as stop_value,
    solve_folds,
)
from texscreen.dataset import DatasetEntry, LabeledDataset, SyntheticSpec, generate_synthetic
from texscreen.evaluation import _report
from texscreen.features import FeatureKind
from texscreen.imagecore import PnmDecodeError

# seed frozen after verifying the LBP-vs-GRAY separation it must achieve
FROZEN_SEED = 1
FROZEN_SPEC = SyntheticSpec(seed=FROZEN_SEED, per_class=20, width=64, height=48)


@pytest.fixture(scope="session", autouse=True)
def package_on_subprocess_path():
    """Commands the tests start import the package the test session imported."""
    src = str(Path(texscreen.__file__).parents[1])
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        yield


@pytest.fixture(scope="session")
def synthetic_benchmark():
    """Frozen synthetic benchmark: a labeled dataset whose entries carry images."""
    _, dataset = generate_synthetic(FROZEN_SPEC)
    return dataset


def train_on_all(features, labels, cfg=SolverConfig()):
    """(weights, bias) of the C-SVC that `solve_folds` trains on every sample.

    One zero row is appended and the last fold, which holds it out, is the
    model: that row's bound and its row of Q are both 0, so the fold trains
    on exactly the given samples.
    """
    x, y = np.asarray(features, dtype=float), np.asarray(labels)
    sol = solve_folds(np.vstack([x, np.zeros(x.shape[1])]), np.append(y, 1), cfg)
    return (sol.alpha[-1, :-1] * y) @ x, sol.bias[-1]


def report_from_confusion(nn, na, an, aa):
    """The LBP report of sequential folds realizing the given confusion counts."""
    entries, decisions = [], []
    for true, pred, count in [(-1, -1, nn), (-1, 1, na), (1, -1, an), (1, 1, aa)]:
        for _ in range(count):
            entries.append(DatasetEntry(f"s{len(entries):03d}", None, true, 1))
            decisions.append(float(pred))
    converged = np.ones(len(entries), dtype=bool)
    labels = np.array([e.label for e in entries])
    return _report(
        LabeledDataset(entries), labels, FeatureKind.LBP, np.array(decisions), converged
    )


PNM_WHITESPACE = b" \t\n\r\x0b\x0c"


def pnm_skip_filler(data, pos):
    """The position of the first byte at or after `pos` that is neither
    whitespace nor inside a '#' comment, which runs up to CR or LF."""
    while pos < len(data):
        b = data[pos]
        if b in PNM_WHITESPACE:
            pos += 1
        elif b == 0x23:  # '#'
            while pos < len(data) and data[pos] not in b"\r\n":
                pos += 1
        else:
            break
    return pos


def pnm_read_token(data, pos, what):
    """(token, start, end) of the next PNM token, scanned a byte at a time."""
    pos = pnm_skip_filler(data, pos)
    if pos >= len(data):
        raise PnmDecodeError(f"unexpected end of data while reading {what}", pos)
    start = pos
    while pos < len(data) and data[pos] not in PNM_WHITESPACE and data[pos] != 0x23:
        pos += 1
    return data[start:pos], start, pos


def lbp_reference(pixels):
    """Bit-by-bit LBP evaluation over plain Python lists.

    Weight 2^i goes to neighbor i counted counterclockwise from W, which
    places NW on the top bit: W=1, SW=2, S=4, SE=8, E=16, NE=32, N=64,
    NW=128. A bit is set when the neighbor is strictly greater than the
    center.
    """
    offsets = [(0, -1), (1, -1), (1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1)]
    height, width = len(pixels), len(pixels[0])
    out = []
    for r in range(1, height - 1):
        row = []
        for c in range(1, width - 1):
            center = pixels[r][c]
            code = 0
            for i, (dr, dc) in enumerate(offsets):
                neighbor = pixels[r + dr][c + dc]
                code += (1 << i) * int(neighbor > center)
            row.append(code)
        out.append(row)
    return out



def feature_reference(image, kind):
    """One image's feature of `kind`: `np.bincount` histograms of its
    `lbp_reference` codes and of its pixels, each divided by its total."""
    pixels = image.pixels
    blocks = []
    if kind is not FeatureKind.GRAY:
        codes = np.array(lbp_reference(pixels.tolist()), dtype=np.int64).ravel()
        blocks.append(np.bincount(codes, minlength=256) / codes.size)
    if kind is not FeatureKind.LBP:
        blocks.append(np.bincount(pixels.ravel(), minlength=256) / pixels.size)
    return np.concatenate(blocks)

@dataclass(eq=False)
class DualSolution:
    """Solver state at termination, kept for feasibility checks."""

    alpha: np.ndarray
    weights: np.ndarray
    passes: int
    converged: bool
    max_violation: float


def _bounded_gradient(g, alpha, c):
    """The gradient g_i = y_i * (w.x_i) - 1 of the dual objective in the
    -alpha_i direction, where at the box bounds 0 and c only the infeasible
    sign counts."""
    return np.where(
        alpha <= 0.0, np.minimum(g, 0.0), np.where(alpha >= c, np.maximum(g, 0.0), g)
    )


def projected_gradient(features, labels, alpha, weights, c):
    """Per-sample optimality violation of the box-constrained dual."""
    return _bounded_gradient(labels * (features @ weights) - 1.0, alpha, c)


def gradient_violations(gradient, alpha, held_out, c):
    """Each fold's largest |projected gradient| over the samples it trains
    on: row f of the (folds, n) arrays holds out sample `held_out[f]`."""
    training = np.asarray(held_out)[:, None] != np.arange(gradient.shape[1])
    return np.where(training, np.abs(_bounded_gradient(gradient, alpha, c)), 0.0).max(axis=1)


def fold_violations(labels, solution, c):
    """Each leave-one-out fold's largest violation at termination, from its
    margins."""
    gradient = np.asarray(labels) * solution.margins - 1.0
    return gradient_violations(gradient, solution.alpha, np.arange(len(labels)), c)


def solve_dual(features, labels, cfg, tolerance):
    """Run fixed-order coordinate descent on the dual until its largest
    violation is within `tolerance` or the pass cap."""
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
        if max_violation <= tolerance:
            converged = True
            break
    return DualSolution(alpha, w, passes, converged, max_violation)


def _bias_from_margins(features, labels, alpha, weights, c):
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


@dataclass(frozen=True)
class ReferenceFold:
    passes: int
    converged: bool
    predicted_label: int
    decision: float


def loocv_reference(features, labels, cfg, tolerance=_TOLERANCE):
    """Per-fold LOOCV: train on every row but one with `solve_dual`, in turn.

    A decision value of exactly zero maps to +1, as in the package.
    """
    labels = np.asarray(labels)
    keep = np.ones(len(labels), dtype=bool)
    folds = []
    for i in range(len(labels)):
        keep[i] = False
        x, y = features[keep], labels[keep]
        solution = solve_dual(x, y, cfg, tolerance)
        bias = _bias_from_margins(x, y, solution.alpha, solution.weights, cfg.c)
        keep[i] = True
        decision = float(solution.weights @ features[i] + bias)
        folds.append(
            ReferenceFold(solution.passes, solution.converged, 1 if decision >= 0.0 else -1, decision)
        )
    return folds


def solve_folds_reference(features, labels, held_out, cfg=SolverConfig(), tolerance=_TOLERANCE):
    """`solve_folds` as fixed-order coordinate descent (Hsieh et al. 2008),
    all folds in lockstep, each stopped once `projected_gradient` is within
    `tolerance` (by default the one `solve_folds` stops at).

    Row f holds out sample `held_out[f]`, an index of n none. The result's
    `decisions` read the diagonal of the margins, so they are the held-out
    decisions only when `held_out` is every index in order."""
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    n = x.shape[0]
    q = (x @ x.T) * np.outer(y, y)
    c = cfg.c
    diagonal = q.diagonal()
    scaled = diagonal > 0.0
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
    bounds = np.where(held_out[:, None] != np.arange(n), c, 0.0)
    active = np.arange(held_out.size)
    upper = bounds.T.copy()
    state = np.zeros((held_out.size, n + 1))
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
        grad = np.matmul(alpha[:, None, :], q)[:, 0, :]
        met = stop_value(grad - 1.0, alpha, upper.T) <= tolerance
        done = met | (done_passes >= cfg.max_outer_iterations)
        if done.any():
            rows = active[done]
            final_alpha[rows] = alpha[done]
            final_grad[rows] = grad[done]
            passes[rows] = done_passes
            converged[rows] = met[done]
            left = ~done
            active, state = active[left], state[left]
            upper = upper[:, left]
    margins = final_grad * y
    bias = fold_bias(y, final_alpha, margins, bounds)
    return FoldSolutions(final_alpha, margins, bias, passes, converged)


def solve_folds_per_fold(features, labels, cfg=SolverConfig()):
    """`solve_folds` with one active set per fold, run one fold after
    another from the all-sample seed."""
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    n = x.shape[0]
    c = cfg.c
    with np.errstate(over="ignore", invalid="ignore"):
        q = (x @ x.T) * np.outer(y, y)
        scale = c * np.abs(q).sum(axis=1).max()
    tolerance = _TOLERANCE + np.finfo(np.float64).eps * scale
    bounds = np.full((n, n), c)
    np.fill_diagonal(bounds, 0.0)
    alpha = bounds.copy()
    grad = np.matmul(alpha[:, None, :], q)[:, 0, :]
    converged = stop_value(grad - 1.0, alpha, bounds) <= tolerance
    passes = np.ones(n, dtype=np.int64)
    rest = np.flatnonzero(~converged)
    if rest.size:
        changes = cfg.max_outer_iterations - 1
        seed, seed_free = np.full(n, c), np.zeros(n, dtype=bool)
        _active_set(q, seed, np.full(n, c), seed_free, changes, tolerance)
        for f in rest:
            start, free = seed.copy(), seed_free.copy()
            start[f], free[f] = 0.0, False
            passes[f] += _active_set(q, start, bounds[f], free, changes, tolerance)
            alpha[f] = start
        grad[rest] = np.matmul(alpha[rest, None, :], q)[:, 0, :]
        violation = stop_value(grad[rest] - 1.0, alpha[rest], bounds[rest])
        converged[rest] = violation <= tolerance
    margins = grad * y
    bias = fold_bias(y, alpha, margins, bounds)
    return FoldSolutions(alpha, margins, bias, passes, converged)


def _active_set(
    q: np.ndarray,
    alpha: np.ndarray,
    upper: np.ndarray,
    free: np.ndarray,
    changes: int,
    tolerance: float,
) -> int:
    """Primal active set for min 1/2 a'Qa - 1'a over 0 <= a <= `upper`.

    Moves the feasible `alpha`, whose variables outside `free` sit at a
    bound, and `free` in place, with at most `changes` changes of the free
    set. Returns the number of changes made.
    """
    used = 0
    while True:
        if free.any():
            rows = q[free]
            face = rows[:, free]
            try:
                target = np.linalg.solve(face, 1.0 - rows @ np.where(free, 0.0, alpha))
            except np.linalg.LinAlgError:  # an exactly singular Q_FF
                target = None
            if target is None or not ((target >= 0.0) & (target <= upper[free])).all():
                if used == changes:
                    return used
                with np.errstate(over="ignore"):  # an overflowed step fails `_flat`
                    direction = None if target is None else target - alpha[free]
                if direction is None or _flat(face, direction):
                    direction = _null_direction(face, rows @ alpha - 1.0)
                _step_to_bound(alpha, upper, free, direction)
                used += 1
                continue
            alpha[free] = target
        # the minimiser over the free variables: release the bound variable
        # whose gradient points furthest into the box
        g = alpha @ q - 1.0
        violation = np.maximum(g * (alpha > 0.0), -g * (alpha < upper))
        violation[free] = 0.0
        j = int(violation.argmax())
        if violation[j] <= tolerance or used == changes:
            return used
        free[j] = True
        used += 1


def _flat(face: np.ndarray, direction: np.ndarray) -> bool:
    """Whether Q_FF has (almost) no curvature along `direction`: then a
    solve of a singular Q_FF returned rounding blown up along its null
    space, a step that need not even descend."""
    with np.errstate(over="ignore", invalid="ignore"):
        curvature = direction @ face @ direction
        return not curvature > _SINGULAR * face.diagonal().max() * (direction @ direction)


def _step_to_bound(
    alpha: np.ndarray, upper: np.ndarray, free: np.ndarray, direction: np.ndarray
) -> None:
    """Move the free variables along `direction` until the first meets its
    bound, which then leaves the free set."""
    index = np.flatnonzero(free)
    a, u = alpha[index], upper[index]
    ratio = np.full(index.size, np.inf)
    falls, rises = direction < 0.0, direction > 0.0
    with np.errstate(over="ignore"):
        ratio[falls] = a[falls] / -direction[falls]
        ratio[rises] = (u[rises] - a[rises]) / direction[rises]
    k = int(ratio.argmin())
    alpha[index] = np.clip(a + ratio[k] * direction, 0.0, u)
    alpha[index[k]] = u[k] if rises[k] else 0.0
    free[index[k]] = False



def best_linear_accuracy_2d(points, labels):
    """Best training accuracy any linear classifier can reach on 2-D points.

    Every dichotomy a separator can realize on a finite 2-D set is realized
    by a direction normal to a line through two of the points (perturbed a
    hair both ways) with a threshold between consecutive projections, so
    scanning those candidates is exhaustive.
    """
    directions = [(1.0, 0.0), (0.0, 1.0)]
    for (ax, ay), (bx, by) in itertools.combinations(points, 2):
        nx, ny = -(by - ay), bx - ax
        if nx == 0 and ny == 0:
            continue
        for eps in (-1e-3, 0.0, 1e-3):
            c, s = math.cos(eps), math.sin(eps)
            directions.append((nx * c - ny * s, nx * s + ny * c))
    best = 0
    for nx, ny in directions:
        projections = sorted({nx * px + ny * py for px, py in points})
        thresholds = [projections[0] - 1.0]
        thresholds += [(u + v) / 2 for u, v in zip(projections, projections[1:])]
        thresholds += [projections[-1] + 1.0]
        for t in thresholds:
            for sign in (1, -1):
                acc = sum(
                    1
                    for (px, py), label in zip(points, labels)
                    if (1 if sign * (nx * px + ny * py - t) >= 0 else -1) == label
                )
                best = max(best, acc)
    return best


def max_margin_separator_2d(points, labels):
    """Exhaustive maximum-margin separator of a separable 2-D set.

    The optimum is supported by one point per class (boundary = the pair's
    perpendicular bisector) or by two same-class points plus one opposite
    (boundary parallel to the pair, halfway to the third). Returns
    (margin, w, b) with |w| = 1, or None when no candidate separates.
    """
    n = len(points)
    best = None

    def consider(w, b):
        nonlocal best
        norm = math.hypot(*w)
        if norm == 0.0:
            return
        margins = [
            labels[i] * (w[0] * points[i][0] + w[1] * points[i][1] + b) / norm
            for i in range(n)
        ]
        worst = min(margins)
        if worst <= 0.0:
            return
        if best is None or worst > best[0] + 1e-12:
            best = (worst, (w[0] / norm, w[1] / norm), b / norm)

    for i, j in itertools.product(range(n), repeat=2):
        if labels[i] == 1 and labels[j] == -1:
            p, q = points[i], points[j]
            w = (p[0] - q[0], p[1] - q[1])
            mid = ((p[0] + q[0]) / 2, (p[1] + q[1]) / 2)
            consider(w, -(w[0] * mid[0] + w[1] * mid[1]))
    for i, j in itertools.combinations(range(n), 2):
        if labels[i] != labels[j]:
            continue
        for k in range(n):
            if labels[k] == labels[i]:
                continue
            p, q, r = points[i], points[j], points[k]
            w = (-(q[1] - p[1]), q[0] - p[0])
            cp = w[0] * p[0] + w[1] * p[1]
            cr = w[0] * r[0] + w[1] * r[1]
            if cp == cr:
                continue
            b = -(cp + cr) / 2
            if labels[i] * (cp + b) < 0:
                w, b = (-w[0], -w[1]), -b
            consider(w, b)
    return best


def random_separable_set(rng, n_points, margin=0.4):
    """Sample n_points 2-D points separated by a through-origin line.

    The labeling line passes through the origin so the box-constrained dual
    (which regularizes the separator before the bias is recovered) reaches a
    zero-loss solution at large C; for offset labeling lines the recovered
    bias cannot always compensate and prediction agreement with the biased
    maximum-margin oracle is not guaranteed.
    """
    while True:
        angle = rng.uniform(0.0, 2 * math.pi)
        w = (math.cos(angle), math.sin(angle))
        points, labels = [], []
        while len(points) < n_points:
            p = (rng.uniform(-2, 2), rng.uniform(-2, 2))
            value = w[0] * p[0] + w[1] * p[1]
            if abs(value) < margin:
                continue
            points.append(p)
            labels.append(1 if value > 0 else -1)
        if len(set(labels)) == 2:
            return points, labels
