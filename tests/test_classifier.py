import random

import numpy as np
import pytest

from conftest import best_linear_accuracy_2d, max_margin_separator_2d, random_separable_set
from texscreen.classifier import (
    LinearModel,
    SolverConfig,
    decision_value,
    predict,
    projected_gradient,
    solve_dual,
    train_csvc,
)
XOR_POINTS = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
XOR_LABELS = np.array([-1, -1, 1, 1])


def _train(points, labels, cfg=None):
    return train_csvc(np.asarray(points, dtype=float), np.asarray(labels), cfg)


def _decisions(model, points):
    return np.asarray(points, dtype=float) @ model.weights + model.bias


def _dual_objective(alpha, weights):
    return alpha.sum() - 0.5 * float(weights @ weights)


class TestTrainCsvc:
    def test_separable_pair(self):
        model = _train([[0.0], [1.0]], [-1, 1])
        assert model.weights[0] > 0
        d = _decisions(model, [[0.0], [1.0]])
        assert d[0] < 0 <= d[1]

    def test_xor_cannot_exceed_three_correct(self):
        # exhaustive search over linear separators caps XOR at 3/4
        assert best_linear_accuracy_2d(XOR_POINTS.tolist(), XOR_LABELS.tolist()) == 3
        model = _train(XOR_POINTS, XOR_LABELS)
        preds = np.where(_decisions(model, XOR_POINTS) >= 0, 1, -1)
        assert (preds == XOR_LABELS).sum() <= 3

    def test_label_negation_negates_decisions(self):
        rng = np.random.default_rng(67)
        x = rng.normal(size=(10, 4))
        y = np.where(np.arange(10) % 3 == 0, 1, -1)
        m_pos = _train(x, y)
        m_neg = _train(x, -y)
        assert np.abs(_decisions(m_pos, x) + _decisions(m_neg, x)).max() <= 1e-6

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="training set must contain both labels"):
            _train([[0.0], [1.0]], [1, 1])

    def test_labels_must_be_plus_or_minus_one(self):
        with pytest.raises(ValueError, match="labels must be \\+1 or -1"):
            _train([[0.0], [1.0]], [0, 1])

    def test_dimension_mismatch_rejected(self):
        x = np.full((2, 256), 1 / 256)
        with pytest.raises(ValueError, match="labels must match the number of samples"):
            train_csvc(x, [1, -1, 1])
        with pytest.raises(ValueError, match="features must form a non-empty"):
            train_csvc(x.ravel(), [1, -1])
        with pytest.raises(ValueError, match="features must form a non-empty"):
            train_csvc(np.zeros((0, 256)), np.zeros(0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_features_rejected(self, bad):
        with pytest.raises(ValueError, match="features must be finite"):
            _train([[bad], [1.0]], [-1, 1])

    def test_stacked_vectors_build_matrix(self):
        a = np.full(256, 1 / 256)
        b = np.zeros(256)
        b[7] = 1.0
        model = train_csvc(np.stack([a, b]), [-1, 1])
        assert model.weights.shape == (256,)
        assert predict(model, a) == -1 and predict(model, b) == 1


class TestSolver:
    def test_alpha_stays_in_box_and_violation_small(self):
        rng = np.random.default_rng(71)
        cfg = SolverConfig()
        for _ in range(10):
            x = rng.normal(size=(12, 3))
            y = np.where(rng.random(12) < 0.5, 1, -1)
            y[0], y[1] = 1, -1
            sol = solve_dual(x, y, cfg)
            assert (sol.alpha >= 0.0).all() and (sol.alpha <= cfg.c).all()
            pg = projected_gradient(x, y, sol.alpha, sol.weights, cfg.c)
            if sol.converged:
                assert np.abs(pg).max() <= cfg.tolerance

    def test_objective_nondecreasing_across_passes(self):
        rng = np.random.default_rng(73)
        x = rng.normal(size=(8, 2))
        y = np.where(rng.random(8) < 0.5, 1, -1)
        y[0], y[1] = 1, -1
        values = []
        for passes in range(1, 12):
            cfg = SolverConfig(max_outer_iterations=passes)
            sol = solve_dual(x, y, cfg)
            values.append(_dual_objective(sol.alpha, sol.weights))
            if sol.converged:
                break
        for before, after in zip(values, values[1:]):
            assert after >= before - 1e-12

    def test_deterministic_bit_identical(self):
        rng = np.random.default_rng(79)
        x = rng.normal(size=(15, 5))
        y = np.where(rng.random(15) < 0.4, 1, -1)
        y[0], y[1] = 1, -1
        m1, m2 = _train(x, y), _train(x.copy(), y.copy())
        assert np.array_equal(m1.weights, m2.weights)
        assert m1.bias == m2.bias
        assert m1.converged == m2.converged

    def test_agrees_with_max_margin_oracle_on_separable_sets(self):
        rng = random.Random(83)
        cfg = SolverConfig(c=100.0)
        for _ in range(20):
            points, labels = random_separable_set(rng, 8)
            oracle = max_margin_separator_2d(points, labels)
            assert oracle is not None
            margin, w, b = oracle
            oracle_preds = [
                1 if w[0] * px + w[1] * py + b >= 0 else -1 for px, py in points
            ]
            assert oracle_preds == labels  # max-margin separates its own data
            model = _train(points, labels, cfg)
            preds = np.where(_decisions(model, points) >= 0, 1, -1)
            assert preds.tolist() == oracle_preds

    def test_scale_invariance_with_rescaled_penalty(self):
        # exact for power-of-two scales: all intermediate arithmetic maps
        # one-to-one between the scaled and unscaled trajectories
        rng = np.random.default_rng(89)
        x = rng.normal(size=(12, 4))
        y = np.where(rng.random(12) < 0.5, 1, -1)
        y[0], y[1] = 1, -1
        base = _train(x, y, SolverConfig(c=1.0))
        for s in (2.0, 0.5):
            scaled = _train(x * s, y, SolverConfig(c=1.0 / (s * s)))
            d_base = _decisions(base, x)
            d_scaled = _decisions(scaled, x * s)
            assert np.array_equal(
                np.where(d_base >= 0, 1, -1), np.where(d_scaled >= 0, 1, -1)
            )
            assert np.allclose(d_base, d_scaled, atol=1e-12)

    def test_zero_feature_row_is_handled(self):
        x = np.array([[0.0, 0.0], [1.0, 0.5]])
        y = np.array([-1, 1])
        sol = solve_dual(x, y, SolverConfig())
        assert 0.0 <= sol.alpha[0] <= 1.0
        assert np.isfinite(sol.weights).all()


class TestPredictAndSerialize:
    def _model(self, weights, bias):
        return LinearModel(np.asarray(weights, dtype=float), bias)

    def test_constant_model(self):
        m = self._model(np.zeros(256), 0.5)
        assert decision_value(m, np.full(256, 1 / 256)) == 0.5

    def test_coordinate_projection(self):
        w = np.zeros(256)
        w[17] = 1.0
        m = self._model(w, 0.0)
        v = np.zeros(256)
        v[17] = 0.25
        assert decision_value(m, v) == 0.25

    def test_linearity_in_x(self):
        rng = np.random.default_rng(97)
        w = rng.normal(size=256)
        m = self._model(w, 0.0)
        v = rng.random(256)
        d1 = decision_value(m, v)
        d2 = decision_value(m, 2 * v)
        assert d2 == 2 * d1

    def test_sign_rule_and_tie(self):
        x = np.full(256, 1 / 256)
        assert predict(self._model(np.zeros(256), 3.2), x) == 1
        assert predict(self._model(np.zeros(256), -0.1), x) == -1
        assert predict(self._model(np.zeros(256), 0.0), x) == 1

    def test_dimension_mismatch_rejected(self):
        m = self._model(np.zeros(2), 0.0)
        with pytest.raises(ValueError, match="model expects 2 values, got 256"):
            decision_value(m, np.full(256, 1 / 256))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_features_rejected(self, bad):
        m = self._model([0.0, 1.0], 0.0)
        with pytest.raises(ValueError, match="feature values must be finite"):
            predict(m, np.array([0.5, bad]))


class TestSolverConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [{"c": 0.0}, {"c": -1.0}, {"max_outer_iterations": 0}, {"tolerance": 0.0}],
    )
    def test_rejects_non_positive_fields(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)

    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.c == 1.0
        assert cfg.max_outer_iterations == 100
        assert cfg.tolerance == 1e-6
