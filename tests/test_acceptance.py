"""Acceptance suite: one test per release criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the pass lines and
timings as they happen.
"""

import random
import time

import numpy as np

from conftest import (
    best_linear_accuracy_2d,
    lbp_reference,
    max_margin_separator_2d,
    random_separable_set,
    report_from_confusion,
    train_on_all,
)
from texscreen.classifier import SolverConfig, projected_gradient, solve_folds
from texscreen.evaluation import (
    DEFAULT_SWEEP_RESOLUTIONS,
    loocv,
    render_percent,
    resolution_sweep,
    sweep_to_json,
    sweep_to_table,
)
from texscreen.features import Comparator, FeatureKind, lbp_histogram, lbp_transform
from texscreen.imagecore import GrayImage, Resolution, decode_image, encode_pgm, resize_bilinear


def test_criterion_1_report_arithmetic():
    """Exact percent rendering from the reference confusion counts."""
    full = report_from_confusion(23, 1, 1, 34)
    assert render_percent(full.correct, full.n) == "96.6%"
    assert render_percent(int(full.confusion[0, 0]), full.normal_total) == "95.8%"
    assert render_percent(int(full.confusion[1, 1]), full.adulterated_total) == "97.1%"

    balanced = report_from_confusion(20, 0, 1, 19)
    assert render_percent(balanced.correct, balanced.n) == "97.5%"
    assert render_percent(int(balanced.confusion[0, 0]), balanced.normal_total) == "100.0%"
    assert render_percent(int(balanced.confusion[1, 1]), balanced.adulterated_total) == "95.0%"
    print("\nACCEPTANCE 1 report arithmetic: PASS")


def test_criterion_2_lbp_kernel_suite():
    started = time.perf_counter()
    constant = GrayImage(np.full((8, 8), 50))
    assert (lbp_transform(constant, Comparator.STRICT_GREATER) == 0).all()
    assert (lbp_transform(constant, Comparator.GREATER_EQUAL) == 255).all()

    hand = GrayImage([[6, 5, 2], [7, 5, 1], [9, 8, 7]])
    assert lbp_transform(hand).tolist() == [[143]]

    rng = np.random.default_rng(107)
    for _ in range(10):
        h, w = rng.integers(3, 24, size=2)
        img = GrayImage(rng.integers(0, 256, size=(h, w)))
        assert lbp_histogram(lbp_transform(img)).sum() == (h - 2) * (w - 2)

    pixels = rng.integers(0, 200, size=(9, 9))
    assert np.array_equal(
        lbp_transform(GrayImage(pixels)),
        lbp_transform(GrayImage(pixels + 55)),
    )

    for _ in range(100):
        pixels = rng.integers(0, 256, size=(5, 5))
        assert (
            lbp_transform(GrayImage(pixels)).tolist()
            == lbp_reference(pixels.tolist(), strict=True)
        )
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 2 LBP kernel suite: PASS ({elapsed:.2f}s)")


def test_criterion_3_synthetic_end_to_end(synthetic_benchmark):
    started = time.perf_counter()
    dataset = synthetic_benchmark
    assert len(dataset) == 40
    native = Resolution(64, 48)
    acc_lbp = loocv(dataset, FeatureKind.LBP, native).global_accuracy
    acc_gray = loocv(dataset, FeatureKind.GRAY, native).global_accuracy
    elapsed = time.perf_counter() - started
    assert acc_lbp >= 0.95
    assert acc_gray <= 0.65
    assert acc_lbp - acc_gray >= 0.30
    assert elapsed < 60.0
    print(
        f"\nACCEPTANCE 3 synthetic end-to-end: PASS "
        f"(lbp={acc_lbp:.3f}, gray={acc_gray:.3f}, {elapsed:.1f}s)"
    )


def test_criterion_4_solver_suite():
    started = time.perf_counter()

    weights, bias = train_on_all([[0.0], [1.0]], [-1, 1])
    decisions = np.array([[0.0], [1.0]]) @ weights + bias
    assert decisions[0] < 0 <= decisions[1]

    xor_points = [[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]]
    xor_labels = [-1, -1, 1, 1]
    assert best_linear_accuracy_2d(xor_points, xor_labels) == 3
    weights, bias = train_on_all(xor_points, xor_labels)
    xor_preds = np.where(np.array(xor_points) @ weights + bias >= 0, 1, -1)
    assert (xor_preds == np.array(xor_labels)).sum() <= 3

    rng = np.random.default_rng(109)
    cfg = SolverConfig()
    for _ in range(5):
        x = rng.normal(size=(10, 3))
        y = np.where(rng.random(10) < 0.5, 1, -1)
        y[0], y[1] = 1, -1
        folds = np.arange(10)
        sol = solve_folds(x, y, folds, cfg)
        assert (sol.alpha >= 0.0).all() and (sol.alpha <= cfg.c).all()
        assert (sol.alpha[folds, folds] == 0.0).all()
        pg = np.abs(projected_gradient(y * sol.margins - 1.0, sol.alpha, cfg.c))
        pg[folds, folds] = 0.0
        assert (pg.max(axis=1)[sol.converged] <= 1e-6).all()
        negated = solve_folds(x, -y, folds, cfg)
        assert np.abs(sol.decisions + negated.decisions).max() <= 1e-6

    py_rng = random.Random(113)
    for _ in range(15):
        points, labels = random_separable_set(py_rng, 8)
        oracle = max_margin_separator_2d(points, labels)
        assert oracle is not None
        _, w, b = oracle
        oracle_preds = [1 if w[0] * px + w[1] * py + b >= 0 else -1 for px, py in points]
        weights, bias = train_on_all(points, labels, SolverConfig(c=100.0))
        preds = np.where(np.array(points) @ weights + bias >= 0, 1, -1)
        assert preds.tolist() == oracle_preds

    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 4 solver suite: PASS ({elapsed:.2f}s)")


def test_criterion_5_resolution_sweep(synthetic_benchmark):
    started = time.perf_counter()
    dataset = synthetic_benchmark
    first = resolution_sweep(dataset, DEFAULT_SWEEP_RESOLUTIONS)
    second = resolution_sweep(dataset, DEFAULT_SWEEP_RESOLUTIONS)
    assert len(first) == 11
    assert [(r.width, r.height) for r in first] == [
        (50, 37), (75, 56), (100, 75), (125, 94), (150, 113), (175, 131),
        (200, 150), (225, 169), (250, 188), (275, 207), (300, 225),
    ]
    for row in first.values():
        for report in row.values():
            assert report.n == 40
            assert 0 <= report.correct <= report.n
    assert sweep_to_json(first) == sweep_to_json(second)
    assert sweep_to_table(first) == sweep_to_table(second)
    elapsed = time.perf_counter() - started
    assert elapsed < 600.0
    print(f"\nACCEPTANCE 5 resolution sweep: PASS ({elapsed:.1f}s)")


def test_criterion_6_numeric_micro_checks():
    red = decode_image(b"P6 1 1 255\n\xff\x00\x00")
    assert red.pixels[0, 0] == 76

    square = GrayImage([[0, 100], [200, 60]])
    assert resize_bilinear(square, Resolution(1, 1)).pixels[0, 0] == 90

    rng = np.random.default_rng(127)
    for _ in range(5):
        h, w = rng.integers(1, 30, size=2)
        img = GrayImage(rng.integers(0, 256, size=(h, w)))
        again = decode_image(encode_pgm(img))
        assert isinstance(again, GrayImage)
        assert np.array_equal(again.pixels, img.pixels)
    print("\nACCEPTANCE 6 numeric micro-checks: PASS")
