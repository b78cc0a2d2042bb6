"""Shared fixtures and independent oracles for the test suite.

The oracles deliberately avoid the library's code paths: the LBP reference
walks pixels one by one in pure Python, the separator searches enumerate
candidate geometries exhaustively.
"""

import itertools
import math

import numpy as np
import pytest

from texscreen.dataset import SyntheticSpec, generate_synthetic

# seed frozen after verifying the LBP-vs-GRAY separation it must achieve
FROZEN_SEED = 1
FROZEN_SPEC = SyntheticSpec(seed=FROZEN_SEED, per_class=20, width=64, height=48, smoothing_radius=2)


@pytest.fixture(scope="session")
def synthetic_benchmark():
    """Frozen synthetic benchmark: a labeled dataset whose entries carry images."""
    _, dataset = generate_synthetic(FROZEN_SPEC)
    return dataset


def lbp_reference(pixels, strict=True):
    """Bit-by-bit LBP evaluation over plain Python lists.

    Weight 2^i goes to neighbor i counted counterclockwise from W, which
    places NW on the top bit: W=1, SW=2, S=4, SE=8, E=16, NE=32, N=64,
    NW=128.
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
                hit = neighbor > center if strict else neighbor >= center
                code += (1 << i) * int(hit)
            row.append(code)
        out.append(row)
    return out


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
