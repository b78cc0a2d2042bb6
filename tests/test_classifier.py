import hashlib
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import texscreen.classifier
from conftest import (
    best_linear_accuracy_2d,
    fold_violations,
    gradient_violations,
    loocv_reference,
    max_margin_separator_2d,
    random_separable_set,
    solve_folds_reference,
    train_on_all,
)
from texscreen.classifier import SolverConfig, projected_gradient, solve_folds
from texscreen.evaluation import _predicted_label, feature_tables
from texscreen.features import FeatureKind
from texscreen.imagecore import Resolution

XOR_POINTS = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
XOR_LABELS = np.array([-1, -1, 1, 1])
KINDS = (FeatureKind.LBP, FeatureKind.GRAY, FeatureKind.CONCAT)
SOLUTION_FIELDS = ("alpha", "margins", "bias", "passes", "converged")


def _decisions(model, points):
    weights, bias = model
    return np.asarray(points, dtype=float) @ weights + bias


def _weights(x, y, sol):
    """(folds, d): w_f = sum_j alpha_fj y_j x_j."""
    return (sol.alpha * y) @ x


def _frozen_tables(dataset, kinds):
    images = [e.image for e in dataset.entries]
    return feature_tables(images, kinds, Resolution(64, 48))


def _random_problem(rng, n, d):
    x = rng.normal(size=(n, d))
    y = np.where(rng.random(n) < 0.5, 1, -1)
    y[0], y[1], y[2], y[3] = 1, -1, 1, -1  # every fold keeps both labels
    return x, y


class TestTrainCsvc:
    """The C-SVC trained on every sample: the fold that holds out an appended
    zero row."""

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
        pos, neg = solve_folds(x, y), solve_folds(x, -y)
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
            sol = solve_folds(x, y, cfg)
            assert (sol.alpha >= 0.0).all() and (sol.alpha <= cfg.c).all()
            assert sol.converged.any()
            assert (fold_violations(y, sol, cfg.c)[sol.converged] <= cfg.tolerance).all()

    def test_objective_nondecreasing_across_passes(self):
        rng = np.random.default_rng(73)
        x, y = _random_problem(rng, 8, 2)
        values = []
        for passes in range(1, 12):
            sol = solve_folds(x, y, SolverConfig(max_outer_iterations=passes))
            w = _weights(x, y, sol)
            values.append(sol.alpha.sum(axis=1) - 0.5 * np.einsum("fd,fd->f", w, w))
            if sol.converged.all():
                break
        for before, after in zip(values, values[1:]):
            assert (after >= before - 1e-12).all()

    def test_deterministic_bit_identical(self):
        rng = np.random.default_rng(79)
        x, y = _random_problem(rng, 15, 5)
        s1, s2 = solve_folds(x, y), solve_folds(x.copy(), y.copy())
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
        base = solve_folds(x, y, SolverConfig(c=1.0))
        for s in (2.0, 0.5):
            scaled = solve_folds(x * s, y, SolverConfig(c=1.0 / (s * s)))
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
        x = feature_tables(
            [e.image for e in synthetic_benchmark.entries],
            (FeatureKind.LBP,),
            Resolution(64, 48),
        )[FeatureKind.LBP]
        problems.append((x, y, SolverConfig(c=10.0, max_outer_iterations=1000)))
        for x, y, cfg in problems:
            batch = solve_folds(x, y, cfg)
            for k in range(len(y)):
                alone = solve_folds_reference(x, y, np.array([k]), cfg)
                for field in SOLUTION_FIELDS:
                    assert np.array_equal(getattr(alone, field)[0], getattr(batch, field)[k]), (
                        k,
                        field,
                    )
        assert np.unique(batch.passes).size > 1  # the LBP folds leave at different passes

    def test_zero_feature_row_is_handled(self):
        x = np.array([[0.0, 0.0], [1.0, 0.5], [0.0, 0.0], [0.5, 1.0]])
        y = np.array([-1, 1, 1, -1])
        sol = solve_folds(x, y)
        assert ((sol.alpha >= 0.0) & (sol.alpha <= 1.0)).all()
        assert np.isfinite(sol.margins).all() and np.isfinite(sol.bias).all()
        assert (fold_violations(y, sol, 1.0)[sol.converged] <= 1e-6).all()

    def test_subnormal_diagonal_takes_the_zero_row_step(self):
        # rows of 6e-155 have a subnormal Q_ii, whose reciprocal overflows:
        # they take a zero row's step, so every fold training on them holds
        # alpha = C, and the folds end as they did with the overflow ignored
        x = np.array([[6.0e-155], [6.0e-155], [1.0], [0.5]])
        y = np.array([1, -1, 1, -1])
        tiny = ~np.eye(4, dtype=bool) & (np.arange(4) < 2)
        for c, decisions in (
            (1.0, [-0.25, -0.375, -0.375, 0.0]),
            (10.0, [5.999999999999998e-155, 5.999999999999998e-155, -2.0, 0.5]),
        ):
            sol = solve_folds(x, y, SolverConfig(c=c))
            assert (sol.alpha[tiny] == c).all()
            assert sol.converged.all()
            assert sol.decisions.tolist() == decisions

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_stop_value_matches_masked_reference(self, data):
        # the bound rule against the training-mask rule on arbitrary states:
        # alpha at 0, at C or inside, held-out columns with any gradient
        folds = data.draw(st.integers(1, 6), label="folds")
        n = data.draw(st.integers(1, 8), label="n")
        c = data.draw(st.sampled_from([0.1, 1.0, 10.0, 2.0**-30]), label="c")
        held_out = np.array(
            data.draw(st.lists(st.integers(0, n), min_size=folds, max_size=folds), label="held_out")
        )
        edges = st.sampled_from([0.0, -0.0, 1e-6, -1e-6, 1.0, -1.0])
        gradient = data.draw(
            hnp.arrays(np.float64, (folds, n), elements=edges | st.floats(-1e3, 1e3)),
            label="gradient",
        )
        where = data.draw(hnp.arrays(np.int8, (folds, n), elements=st.integers(0, 2)), label="at")
        inside = c * data.draw(
            hnp.arrays(np.float64, (folds, n), elements=st.floats(0.001, 0.999)), label="inside"
        )
        bounds = np.where(held_out[:, None] != np.arange(n), c, 0.0)
        alpha = np.minimum(np.choose(where, [0.0, c, inside]), bounds)
        got = projected_gradient(gradient, alpha, bounds)
        assert (got == gradient_violations(gradient, alpha, held_out, c)).all()

    def test_stop_value_taken_once_per_pass(self, monkeypatch, synthetic_benchmark):
        # the benchmark marks every pass at this module-level call
        calls = []
        stop_value = texscreen.classifier.projected_gradient

        def counted(*args):
            calls.append(args)
            return stop_value(*args)

        monkeypatch.setattr(texscreen.classifier, "projected_gradient", counted)
        rng = np.random.default_rng(107)
        for cfg in (SolverConfig(), SolverConfig(c=10.0), SolverConfig(max_outer_iterations=2)):
            x, y = _random_problem(rng, 12, 4)
            calls.clear()
            sol = solve_folds(x, y, cfg)
            assert len(calls) == sol.passes.max()
        # folds that leave the batch at different passes: still one call a pass
        y = np.array([e.label for e in synthetic_benchmark.entries])
        x = _frozen_tables(synthetic_benchmark, (FeatureKind.LBP,))[FeatureKind.LBP]
        calls.clear()
        sol = solve_folds(x, y, SolverConfig(c=10.0, max_outer_iterations=1000))
        assert np.unique(sol.passes).size > 1
        assert len(calls) == sol.passes.max()
        assert len(calls[-1][0]) == (sol.passes == sol.passes.max()).sum()

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_bytes_match_earlier_pass_loop(self, data):
        # the per-coordinate views built once per active set change no bit
        # of any leave-one-out fold, also with pass caps that stop folds early
        n = data.draw(st.integers(2, 10), label="n")
        d = data.draw(st.integers(1, 5), label="d")
        # entries 0 or at least 1e-3 in size, so no Q_ii underflows
        sized = st.floats(1e-3, 4.0) | st.floats(-4.0, -1e-3)
        values = st.sampled_from([0.0, 0.5, -1.0, 2.0]) | sized
        x = data.draw(hnp.arrays(np.float64, (n, d), elements=values), label="x")
        y = np.array(data.draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n)))
        cfg = SolverConfig(
            c=data.draw(st.sampled_from([0.1, 1.0, 10.0, 100.0]), label="c"),
            max_outer_iterations=data.draw(st.sampled_from([1, 2, 1000]), label="cap"),
        )
        got = solve_folds(x, y, cfg)
        want = solve_folds_reference(x, y, np.arange(n), cfg)
        for field in SOLUTION_FIELDS:
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field

    def test_frozen_solutions_pinned(self, synthetic_benchmark):
        # every bit of every fold at the loocv-solver settings, recorded
        # before the per-coordinate views were built once per active set;
        # reports pin only the signs of decisions
        y = np.array([e.label for e in synthetic_benchmark.entries])
        tables = _frozen_tables(synthetic_benchmark, (FeatureKind.LBP, FeatureKind.CONCAT))
        digest = hashlib.sha256()
        for kind in (FeatureKind.LBP, FeatureKind.CONCAT):
            sol = solve_folds(tables[kind], y, SolverConfig(c=10.0, max_outer_iterations=1000))
            for field in SOLUTION_FIELDS:
                digest.update(getattr(sol, field).tobytes())
        assert digest.hexdigest() == (
            "92083e92ff1466c936bd3ff590a9ae47ae262672958ed33b81cd51b9ddd59a29"
        )

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_every_fold_feasible_property(self, data):
        n = data.draw(st.integers(3, 12), label="n")
        d = data.draw(st.integers(1, 6), label="d")
        # few distinct values, so zero and duplicate rows are common
        x = data.draw(hnp.arrays(np.float64, (n, d), elements=st.sampled_from([0.0, 0.5, -1.0, 2.0])))
        y = np.array(data.draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n)))
        cfg = SolverConfig(c=data.draw(st.sampled_from([0.1, 1.0, 10.0]), label="c"))
        sol = solve_folds(x, y, cfg)
        assert ((sol.alpha >= 0.0) & (sol.alpha <= cfg.c)).all()
        training = np.arange(n)[:, None] != np.arange(n)
        assert (sol.alpha[~training] == 0.0).all()
        # a zero row's gradient is always -1: every fold training on it holds alpha = C
        assert (sol.alpha[training & ~x.any(axis=1)] == cfg.c).all()
        assert (fold_violations(y, sol, cfg.c)[sol.converged] <= cfg.tolerance).all()
        assert ((sol.passes >= 1) & (sol.passes <= cfg.max_outer_iterations)).all()
        assert sol.converged[sol.passes < cfg.max_outer_iterations].all()


class TestPerFoldReference:
    """The batched folds against the per-fold solver they replace."""

    def _check(self, x, y, cfg):
        sol = solve_folds(x, y, cfg)
        ref = loocv_reference(x, y, cfg)
        assert sol.passes.tolist() == [f.passes for f in ref]
        assert sol.converged.tolist() == [f.converged for f in ref]
        assert _predicted_label(sol.decisions).tolist() == [f.predicted_label for f in ref]
        assert np.abs(sol.decisions - [f.decision for f in ref]).max() <= 1e-12
        return sol

    def _tables(self, dataset, kinds, target):
        return feature_tables([e.image for e in dataset.entries], kinds, target)

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
        sol = solve_folds(x, y, SolverConfig(c=2.0))
        assert (sol.margins == 0.0).all()
        assert np.array_equal(sol.decisions, sol.bias)

    def test_coordinate_projection(self):
        # the decision read from G equals w_f . x_f + b_f with w_f built from alpha
        rng = np.random.default_rng(97)
        x, y = _random_problem(rng, 12, 5)
        sol = solve_folds(x, y, SolverConfig(c=10.0))
        w = _weights(x, y, sol)
        assert np.abs(sol.margins - w @ x.T).max() <= 1e-12
        assert np.abs(sol.decisions - (np.einsum("fd,fd->f", w, x) + sol.bias)).max() <= 1e-12

    def test_linearity_in_x(self):
        # a fold never reads its held-out row, so scaling that row by 2 scales
        # only w_f . x_f of fold f, exactly
        rng = np.random.default_rng(101)
        x, y = _random_problem(rng, 10, 4)
        base = solve_folds(x, y)
        for k in (0, 5, 9):
            doubled = x.copy()
            doubled[k] *= 2.0
            sol = solve_folds(doubled, y)
            assert np.array_equal(sol.alpha[k], base.alpha[k])
            assert sol.bias[k] == base.bias[k]
            assert sol.decisions[k] - sol.bias[k] == 2.0 * (base.decisions[k] - base.bias[k])

    def test_sign_rule_and_tie(self):
        assert _predicted_label(3.2) == 1
        assert _predicted_label(-0.1) == -1
        assert _predicted_label(0.0) == 1
        assert _predicted_label(-0.0) == 1


class TestSolverInputs:
    """`solve_folds` is a public boundary: it rejects what it cannot solve."""

    @pytest.mark.parametrize(
        "features, labels, message",
        [
            ([[1.0], [2.0], [3.0]], [2, -1, 1], "labels must be +1 or -1"),
            ([[1.0], [2.0], [3.0]], [0, 1, -1], "labels must be +1 or -1"),
            ([[1.0], [2.0], [3.0]], [1, -1, np.nan], "labels must be +1 or -1"),
            ([[1.0], [2.0], [3.0]], [1, -1], "labels must be one per row"),
            ([[1.0], [2.0]], [[1, -1]], "labels must be one per row"),
            ([1.0, 2.0, 3.0], [1, -1, 1], "labels must be one per row"),
            ([[1.0], [np.nan], [3.0]], [1, -1, 1], "features must be finite"),
            ([[1.0], [np.inf], [3.0]], [1, -1, 1], "features must be finite"),
            ([[1.0]], [1], "at least 2 samples, not 1"),
            (np.zeros((0, 3)), [], "at least 2 samples, not 0"),
        ],
    )
    def test_rejects_unsolvable_input(self, features, labels, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            solve_folds(features, labels)

    def test_two_samples_solve(self):
        sol = solve_folds([[0.0], [1.0]], [-1, 1])
        assert np.isfinite(sol.decisions).all()


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
            {"c": float("inf")},
            {"tolerance": float("inf")},
            {"c": np.float64("-inf")},
            {"max_outer_iterations": 2.5},
            {"max_outer_iterations": 3.0},
            {"max_outer_iterations": True},
            {"max_outer_iterations": np.bool_(True)},
            {"max_outer_iterations": "5"},
            {"max_outer_iterations": np.float64(2.0)},
            {"max_outer_iterations": np.int64(-1)},
        ],
    )
    def test_rejects_non_positive_fields(self, kwargs):
        # also infinite c and tolerance, and non-integral or bool pass caps
        [(name, value)] = kwargs.items()
        name = "penalty c" if name == "c" else name
        message = f"^{name} must be positive and .*, not {re.escape(repr(value))}$"
        with pytest.raises(ValueError, match=message):
            SolverConfig(**kwargs)

    @pytest.mark.parametrize("cap", [np.int64(7), np.int32(7), np.uint16(7)])
    def test_normalises_numpy_pass_cap(self, cap):
        cfg = SolverConfig(max_outer_iterations=cap)
        assert type(cfg.max_outer_iterations) is int
        assert cfg == SolverConfig(max_outer_iterations=7)
        assert hash(cfg) == hash(SolverConfig(max_outer_iterations=7))

    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.c == 1.0
        assert cfg.max_outer_iterations == 100
        assert cfg.tolerance == 1e-6
