import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import (
    best_linear_accuracy_2d,
    loocv_reference,
    max_margin_separator_2d,
    random_separable_set,
    train_on_all,
)
from texscreen.classifier import SolverConfig, projected_gradient, solve_folds
from texscreen.evaluation import _feature_tables, _predicted_label
from texscreen.features import Comparator, FeatureKind
from texscreen.imagecore import Resolution

XOR_POINTS = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
XOR_LABELS = np.array([-1, -1, 1, 1])
KINDS = (FeatureKind.LBP, FeatureKind.GRAY, FeatureKind.CONCAT)


def _decisions(model, points):
    weights, bias = model
    return np.asarray(points, dtype=float) @ weights + bias


def _loo(x, y, cfg=None):
    """Every leave-one-out fold of (x, y), solved together."""
    return solve_folds(x, y, np.arange(len(y)), cfg)


def _weights(x, y, sol):
    """(folds, d): w_f = sum_j alpha_fj y_j x_j."""
    return (sol.alpha * y) @ x


def _violations(y, sol, c):
    """Each fold's largest projected-gradient violation over its training samples."""
    pg = np.abs(projected_gradient(y * sol.margins - 1.0, sol.alpha, c))
    training = sol.held_out[:, None] != np.arange(len(y))
    return np.where(training, pg, 0.0).max(axis=1)


def _random_problem(rng, n, d):
    x = rng.normal(size=(n, d))
    y = np.where(rng.random(n) < 0.5, 1, -1)
    y[0], y[1], y[2], y[3] = 1, -1, 1, -1  # every fold keeps both labels
    return x, y


class TestTrainCsvc:
    """The C-SVC trained on every sample: the fold that holds nothing out."""

    def test_separable_pair(self):
        model = train_on_all([[0.0], [1.0]], [-1, 1])
        weights, _ = model
        assert weights[0] > 0
        d = _decisions(model, [[0.0], [1.0]])
        assert d[0] < 0 <= d[1]

    def test_xor_cannot_exceed_three_correct(self):
        # exhaustive search over linear separators caps XOR at 3/4
        assert best_linear_accuracy_2d(XOR_POINTS.tolist(), XOR_LABELS.tolist()) == 3
        model = train_on_all(XOR_POINTS, XOR_LABELS)
        preds = np.where(_decisions(model, XOR_POINTS) >= 0, 1, -1)
        assert (preds == XOR_LABELS).sum() <= 3

    def test_label_negation_negates_decisions(self):
        rng = np.random.default_rng(67)
        x = rng.normal(size=(10, 4))
        y = np.where(np.arange(10) % 3 == 0, 1, -1)
        pos, neg = _loo(x, y), _loo(x, -y)
        assert np.array_equal(pos.passes, neg.passes)
        assert np.abs(pos.decisions + neg.decisions).max() <= 1e-6

    def test_stacked_vectors_build_matrix(self):
        a = np.full(256, 1 / 256)
        b = np.zeros(256)
        b[7] = 1.0
        model = train_on_all(np.stack([a, b]), [-1, 1])
        weights, _ = model
        assert weights.shape == (256,)
        d = _decisions(model, [a, b])
        assert d[0] < 0 <= d[1]


class TestSolver:
    def test_alpha_stays_in_box_and_violation_small(self):
        rng = np.random.default_rng(71)
        cfg = SolverConfig()
        for _ in range(10):
            x, y = _random_problem(rng, 12, 3)
            sol = _loo(x, y, cfg)
            assert (sol.alpha >= 0.0).all() and (sol.alpha <= cfg.c).all()
            assert sol.converged.any()
            assert (_violations(y, sol, cfg.c)[sol.converged] <= cfg.tolerance).all()

    def test_objective_nondecreasing_across_passes(self):
        rng = np.random.default_rng(73)
        x, y = _random_problem(rng, 8, 2)
        values = []
        for passes in range(1, 12):
            sol = _loo(x, y, SolverConfig(max_outer_iterations=passes))
            w = _weights(x, y, sol)
            values.append(sol.alpha.sum(axis=1) - 0.5 * np.einsum("fd,fd->f", w, w))
            if sol.converged.all():
                break
        for before, after in zip(values, values[1:]):
            assert (after >= before - 1e-12).all()

    def test_deterministic_bit_identical(self):
        rng = np.random.default_rng(79)
        x, y = _random_problem(rng, 15, 5)
        s1, s2 = _loo(x, y), _loo(x.copy(), y.copy())
        for field in ("alpha", "margins", "bias", "passes", "converged"):
            assert np.array_equal(getattr(s1, field), getattr(s2, field))
        (w1, b1), (w2, b2) = train_on_all(x, y), train_on_all(x.copy(), y.copy())
        assert np.array_equal(w1, w2)
        assert b1 == b2

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
            model = train_on_all(points, labels, cfg)
            preds = np.where(_decisions(model, points) >= 0, 1, -1)
            assert preds.tolist() == oracle_preds

    def test_scale_invariance_with_rescaled_penalty(self):
        # exact for power-of-two scales: all intermediate arithmetic maps
        # one-to-one between the scaled and unscaled trajectories
        rng = np.random.default_rng(89)
        x, y = _random_problem(rng, 12, 4)
        base = _loo(x, y, SolverConfig(c=1.0))
        for s in (2.0, 0.5):
            scaled = _loo(x * s, y, SolverConfig(c=1.0 / (s * s)))
            assert np.array_equal(base.passes, scaled.passes)
            assert np.array_equal(
                np.where(base.decisions >= 0, 1, -1), np.where(scaled.decisions >= 0, 1, -1)
            )
            assert np.allclose(base.decisions, scaled.decisions, atol=1e-12)

    def test_fold_independent_of_batch(self, synthetic_benchmark):
        # a fold solved alone rounds exactly as it does among the other
        # folds, also after some of them have left the batch
        rng = np.random.default_rng(103)
        problems = [(*_random_problem(rng, 12, 4), SolverConfig(c=c)) for c in (0.1, 1.0, 10.0)]
        y = np.array([e.label for e in synthetic_benchmark.entries])
        x = _feature_tables(
            synthetic_benchmark,
            y,
            (FeatureKind.LBP,),
            Resolution(64, 48),
            Comparator.STRICT_GREATER,
        )[FeatureKind.LBP]
        problems.append((x, y, SolverConfig(c=10.0, max_outer_iterations=1000)))
        for x, y, cfg in problems:
            batch = _loo(x, y, cfg)
            for k in range(len(y)):
                alone = solve_folds(x, y, np.array([k]), cfg)
                for field in ("alpha", "margins", "bias", "passes", "converged"):
                    assert np.array_equal(getattr(alone, field)[0], getattr(batch, field)[k]), (
                        k,
                        field,
                    )
        assert np.unique(batch.passes).size > 1  # the LBP folds leave at different passes

    def test_zero_feature_row_is_handled(self):
        x = np.array([[0.0, 0.0], [1.0, 0.5], [0.0, 0.0], [0.5, 1.0]])
        y = np.array([-1, 1, 1, -1])
        for held_out in (np.array([4]), np.arange(4)):
            sol = solve_folds(x, y, held_out)
            assert ((sol.alpha >= 0.0) & (sol.alpha <= 1.0)).all()
            assert np.isfinite(sol.margins).all() and np.isfinite(sol.bias).all()
            assert (_violations(y, sol, 1.0)[sol.converged] <= 1e-6).all()

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_every_fold_feasible_property(self, data):
        n = data.draw(st.integers(3, 12), label="n")
        d = data.draw(st.integers(1, 6), label="d")
        # few distinct values, so zero and duplicate rows are common
        x = data.draw(hnp.arrays(np.float64, (n, d), elements=st.sampled_from([0.0, 0.5, -1.0, 2.0])))
        y = np.array(data.draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n)))
        cfg = SolverConfig(c=data.draw(st.sampled_from([0.1, 1.0, 10.0]), label="c"))
        sol = _loo(x, y, cfg)
        assert ((sol.alpha >= 0.0) & (sol.alpha <= cfg.c)).all()
        training = np.arange(n)[:, None] != np.arange(n)
        assert (sol.alpha[~training] == 0.0).all()
        # a zero row's gradient is always -1: every fold training on it holds alpha = C
        assert (sol.alpha[training & ~x.any(axis=1)] == cfg.c).all()
        assert (_violations(y, sol, cfg.c)[sol.converged] <= cfg.tolerance).all()
        assert ((sol.passes >= 1) & (sol.passes <= cfg.max_outer_iterations)).all()
        assert sol.converged[sol.passes < cfg.max_outer_iterations].all()


class TestPerFoldReference:
    """The batched folds against the per-fold solver they replace."""

    def _check(self, x, y, cfg):
        sol = _loo(x, y, cfg)
        ref = loocv_reference(x, y, cfg)
        assert sol.passes.tolist() == [f.passes for f in ref]
        assert sol.converged.tolist() == [f.converged for f in ref]
        assert _predicted_label(sol.decisions).tolist() == [f.predicted_label for f in ref]
        assert np.abs(sol.decisions - [f.decision for f in ref]).max() <= 1e-12
        return sol

    def _tables(self, dataset, kinds, target):
        labels = np.array([e.label for e in dataset.entries])
        return _feature_tables(dataset, labels, kinds, target, Comparator.STRICT_GREATER)

    @pytest.mark.parametrize("target", [Resolution(64, 48), Resolution(50, 37)])
    def test_default_config_every_kind(self, synthetic_benchmark, target):
        y = np.array([e.label for e in synthetic_benchmark.entries])
        for x in self._tables(synthetic_benchmark, KINDS, target).values():
            self._check(x, y, SolverConfig())

    def test_loocv_solver_settings(self, synthetic_benchmark):
        y = np.array([e.label for e in synthetic_benchmark.entries])
        tables = self._tables(
            synthetic_benchmark, (FeatureKind.LBP, FeatureKind.CONCAT), Resolution(64, 48)
        )
        for x in tables.values():
            sol = self._check(x, y, SolverConfig(c=10.0, max_outer_iterations=1000))
            assert sol.converged.all() and sol.passes.max() > 100

    def test_pass_cap_hit(self, synthetic_benchmark):
        y = np.array([e.label for e in synthetic_benchmark.entries])
        x = self._tables(synthetic_benchmark, (FeatureKind.LBP,), Resolution(64, 48))[
            FeatureKind.LBP
        ]
        sol = self._check(x, y, SolverConfig(c=10.0, max_outer_iterations=1))
        assert not sol.converged.any()

    def test_zero_feature_rows(self, synthetic_benchmark):
        y = np.array([e.label for e in synthetic_benchmark.entries])
        x = self._tables(synthetic_benchmark, (FeatureKind.GRAY,), Resolution(64, 48))[
            FeatureKind.GRAY
        ].copy()
        x[[3, 17, 30]] = 0.0
        for cfg in (SolverConfig(), SolverConfig(c=10.0, max_outer_iterations=1000)):
            self._check(x, y, cfg)


    def test_bias_interval_bounded_on_one_side(self):
        # no free support vector and, per fold, only upper (then, with the
        # labels negated, only lower) bias bounds: the bias is that bound
        x = np.array([[0.1], [0.2], [-100.0], [-200.0], [0.15]])
        y = np.array([1, 1, -1, -1, 1])
        cfg = SolverConfig(c=0.1)
        for labels in (y, -y):
            sol = self._check(x, labels, cfg)
            assert ((sol.alpha == 0.0) | (sol.alpha == cfg.c)).all()


class TestPredictAndSerialize:
    def test_constant_model(self):
        # zero features give every fold zero weights: its decision is its bias
        x = np.zeros((6, 3))
        y = np.array([1, -1, 1, -1, 1, -1])
        sol = _loo(x, y, SolverConfig(c=2.0))
        assert (sol.margins == 0.0).all()
        assert np.array_equal(sol.decisions, sol.bias)

    def test_coordinate_projection(self):
        # the decision read from G equals w_f . x_f + b_f with w_f built from alpha
        rng = np.random.default_rng(97)
        x, y = _random_problem(rng, 12, 5)
        sol = _loo(x, y, SolverConfig(c=10.0))
        w = _weights(x, y, sol)
        assert np.abs(sol.margins - w @ x.T).max() <= 1e-12
        assert np.abs(sol.decisions - (np.einsum("fd,fd->f", w, x) + sol.bias)).max() <= 1e-12

    def test_linearity_in_x(self):
        # a fold never reads its held-out row, so scaling that row by 2 scales
        # only w_f . x_f, exactly
        rng = np.random.default_rng(101)
        x, y = _random_problem(rng, 10, 4)
        base = _loo(x, y)
        for k in (0, 5, 9):
            doubled = x.copy()
            doubled[k] *= 2.0
            fold = solve_folds(doubled, y, np.array([k]))
            assert np.array_equal(fold.alpha[0], base.alpha[k])
            assert fold.bias[0] == base.bias[k]
            assert fold.decisions[0] - fold.bias[0] == 2.0 * (base.decisions[k] - base.bias[k])

    def test_sign_rule_and_tie(self):
        assert _predicted_label(3.2) == 1
        assert _predicted_label(-0.1) == -1
        assert _predicted_label(0.0) == 1
        assert _predicted_label(-0.0) == 1


class TestSolverConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"c": 0.0},
            {"c": -1.0},
            {"max_outer_iterations": 0},
            {"tolerance": 0.0},
            {"c": float("nan")},
            {"tolerance": float("nan")},
        ],
    )
    def test_rejects_non_positive_fields(self, kwargs):
        with pytest.raises(ValueError, match="must be positive"):
            SolverConfig(**kwargs)

    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.c == 1.0
        assert cfg.max_outer_iterations == 100
        assert cfg.tolerance == 1e-6
