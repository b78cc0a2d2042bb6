import hashlib
import random
import re
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import texscreen.classifier
from conftest import (
    FROZEN_SPEC,
    best_linear_accuracy_2d,
    fold_violations,
    gradient_violations,
    loocv_reference,
    max_margin_separator_2d,
    random_separable_set,
    solve_folds_per_fold,
    solve_folds_reference,
    train_on_all,
)
from texscreen.classifier import (
    _TOLERANCE,
    SolverConfig,
    _null_direction,
    projected_gradient,
    solve_folds,
)
from texscreen.dataset import generate_synthetic
from texscreen.evaluation import _predicted_label, feature_tables
from texscreen.features import FeatureKind
from texscreen.imagecore import Resolution

XOR_POINTS = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
XOR_LABELS = np.array([-1, -1, 1, 1])
KINDS = (FeatureKind.LBP, FeatureKind.GRAY, FeatureKind.CONCAT)
SOLUTION_FIELDS = ("alpha", "margins", "bias", "passes", "converged")
# coordinate descent run to this tolerance, with this cap, is the oracle of
# the exact solver
ORACLE_TOLERANCE = 1e-9
ORACLE = dict(max_outer_iterations=10**6)


def _decisions(model, points):
    weights, bias = model
    return np.asarray(points, dtype=float) @ weights + bias


def _weights(x, y, sol):
    """(folds, d): w_f = sum_j alpha_fj y_j x_j."""
    return (sol.alpha * y) @ x


def _frozen_tables(dataset, kinds):
    images = [e.image for e in dataset.entries]
    return feature_tables(images, kinds, Resolution(64, 48))


# (kind, fold partition counts at 0 / free / C, SHA-256 of the partition
# codes, held-out decisions) of the frozen set at the loocv-solver settings
FROZEN_PINS = (
    (
        FeatureKind.LBP,
        [180, 59, 1361],
        "c1bf872228b6a153afb7a0f1b942d6bfbdba2d3fa5d7eb6fc3d73de948b52f67",
        [
            -0.559281945328, 0.9510941839, -0.526684617761, 0.952843539125, -0.639806078534,
            0.972998201485, -0.595534482565, 0.938061418492, -0.634878573556, 0.975258707548,
            -0.731052801641, 0.935122051701, -0.63810366048, 1.031503657879, -0.605981209294,
            0.978919820611, -0.727831200601, 0.880084484216, -0.668844901237, 1.047776769485,
            -0.58337739622, 1.016698839881, -0.627964423381, 0.972350067529, -0.652562206205,
            0.937121979306, -0.641998971031, 0.975806609941, -0.6849984642, 0.979031933316,
            -0.72069813687, 0.956462562027, -0.705073781629, 0.912518686473, -0.753235039409,
            0.935759316768, -0.5361753535, 0.937322457123, -0.602825219504, 1.019580456035,
        ],
    ),
    (
        FeatureKind.CONCAT,
        [101, 90, 1409],
        "95aa5ff103756bc4a5ae1ab33b889e2b798721aa737c137bd3279dfb6ad7364a",
        [
            -0.725132435188, 0.920410718778, -0.669403640636, 0.926352632265, -0.811648408221,
            0.957627200055, -0.755223682556, 0.924972462989, -0.801877141804, 0.965859784304,
            -0.91084925772, 0.922025238596, -0.817666884305, 1.001885405744, -0.788808012754,
            0.956200837644, -0.899730809724, 0.864263401495, -0.868972892497, 1.020214715028,
            -0.753602893347, 0.992101168612, -0.805250350301, 0.949709735446, -0.818810650074,
            0.925293523814, -0.818592618116, 0.962857916749, -0.873125329424, 0.96374125242,
            -0.894278632076, 0.963059861825, -0.881297377664, 0.883815918845, -0.92561668018,
            0.940922907667, -0.689109630138, 0.917079940248, -0.77900483414, 0.993896294119,
        ],
    ),
)

# draw 5691 (from 0) of numpy's default_rng(2) as n = integers(3, 14),
# d = integers(2, 30), x = random((n, d))**3 with rows normalised to sum 1,
# y = choice([-1, 1], n), then, unless y has one label, C = 10**uniform(0, 30)
CYCLING_TABLE = np.array(
    [
        [0.0914922176401493, 0.9076907549632025, 0.000817027396648146],
        [0.9527401888093101, 0.024722464481058193, 0.022537346709631676],
        [0.8621948702984159, 0.11359135870038913, 0.02421377100119495],
        [0.15159695227049208, 0.8469474218431404, 0.0014556258863674075],
        [0.28533854665552216, 0.6929793474751798, 0.021682105869298036],
        [0.9998756454803124, 2.0324487255548708e-05, 0.00010403003243206908],
        [0.03617514499404546, 0.03968963293826897, 0.9241352220676855],
        [0.936068742883039, 0.06083549574464426, 0.003095761372316694],
        [0.45524972908692946, 0.12040598906678017, 0.4243442818462904],
        [0.7430260567156148, 0.25694581459810595, 2.812868627926072e-05],
        [0.45805380151331837, 0.0055028777730980775, 0.5364433207135835],
    ]
)
CYCLING_LABELS = np.array([1, -1, -1, -1, 1, -1, -1, 1, 1, -1, 1])


def _bounds(n, c):
    return np.where(np.eye(n, dtype=bool), 0.0, c)


@pytest.fixture(scope="module")
def frozen_oracle(synthetic_benchmark):
    """(labels, {(kind, c): (table, oracle solution)}) for the frozen LBP and
    CONCAT tables at C = 1 and 10."""
    y = np.array([e.label for e in synthetic_benchmark.entries])
    tables = _frozen_tables(synthetic_benchmark, (FeatureKind.LBP, FeatureKind.CONCAT))
    return y, {
        (kind, c): (
            x,
            solve_folds_reference(
                x, y, np.arange(len(y)), SolverConfig(c=c, **ORACLE), ORACLE_TOLERANCE
            ),
        )
        for kind, x in tables.items()
        for c in (1.0, 10.0)
    }


@st.composite
def _scaled_tables(draw):
    """Finite features whose rows range from 1e-160 to 1e154 in size, with
    zero and duplicate rows, any labels and C from 1e-3 to 1.78e308, near the
    largest float."""
    n = draw(st.integers(2, 8), label="n")
    d = draw(st.integers(1, 4), label="d")
    rows = draw(hnp.arrays(np.float64, (n, d), elements=st.floats(-1.0, 1.0)), label="rows")
    scale = st.just(0.0) | st.floats(-160.0, 154.0).map(lambda e: 10.0**e)
    rows *= np.array(draw(st.lists(scale, min_size=n, max_size=n), label="scale"))[:, None]
    x = rows[draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n), label="which")]
    y = np.array(draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n), label="y"))
    return x, y, draw(st.floats(-3.0, 308.25).map(lambda e: 10.0**e), label="c")


@st.composite
def _few_valued_tables(draw):
    """Features of few distinct values, so zero and duplicate rows and
    singular faces are common, with C from 0.01 to 1e4 and caps of 1, 2 and
    1000 KKT checks."""
    n = draw(st.integers(2, 12), label="n")
    d = draw(st.integers(1, 6), label="d")
    values = st.sampled_from([0.0, 0.5, -1.0, 2.0])
    x = draw(hnp.arrays(np.float64, (n, d), elements=values), label="x")
    y = np.array(draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n), label="y"))
    c = st.sampled_from([0.01, 1.0, 10.0, 1e4]) | st.floats(-2.0, 4.0).map(lambda e: 10.0**e)
    cap = st.sampled_from([1, 2, 1000])
    return x, y, SolverConfig(c=draw(c, label="c"), max_outer_iterations=draw(cap, label="cap"))


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
            assert (fold_violations(y, sol, cfg.c)[sol.converged] <= _TOLERANCE).all()

    def test_default_cap_converges_overlapping_table(self):
        # a random overlapping L1-normalised table at large C, where 11 of
        # the 157 folds need more than 100 KKT checks
        rng = np.random.default_rng(7)
        n = int(rng.integers(100, 161))
        x = rng.random((n, 16)) ** rng.uniform(1, 8)
        x /= x.sum(axis=1, keepdims=True)
        y = np.where(np.arange(n) % 2 == 0, 1, -1)
        c = float(10 ** rng.uniform(3, 6))
        assert solve_folds(x, y, SolverConfig(c=c)).converged.all()

    @pytest.mark.parametrize("scale", [1e4, 1e6])
    def test_large_features_converge(self, scale):
        # the tolerance grows with the rounding of the gradients: an absolute
        # 1e-6 leaves 1 of these 60 folds unconverged at 1e4 and all at 1e6
        x, y = _random_problem(np.random.default_rng(101), 60, 3)
        assert solve_folds(x * scale, y).converged.all()

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

    @pytest.mark.kernel_independent
    def test_fold_independent_of_batch(self, frozen_oracle):
        # a fold's alpha is the solve of its own final partition, so neither
        # the other folds nor the warm start move one bit of it; the fold is
        # optimal within tolerance and labels as the oracle does
        rng = np.random.default_rng(103)
        problems = []
        for c in (0.1, 1.0, 10.0):
            x, y = _random_problem(rng, 12, 4)
            cfg = SolverConfig(c=c)
            ref = solve_folds_reference(
                x, y, np.arange(12), replace(cfg, **ORACLE), ORACLE_TOLERANCE
            )
            problems.append((x, y, cfg, ref))
        y, oracle = frozen_oracle
        x, ref = oracle[FeatureKind.LBP, 10.0]
        problems.append((x, y, SolverConfig(c=10.0, max_outer_iterations=1000), ref))
        for x, y, cfg, ref in problems:
            sol = solve_folds(x, y, cfg)
            assert sol.converged.all()
            assert (fold_violations(y, sol, cfg.c) <= _TOLERANCE).all()
            q = (x @ x.T) * np.outer(y, y)
            for k, alpha in enumerate(sol.alpha):
                free = (alpha > 0.0) & (alpha < cfg.c)
                rows = q[free]
                alone = np.linalg.solve(rows[:, free], 1.0 - rows @ np.where(free, 0.0, alpha))
                assert alpha[free].tobytes() == alone.tobytes(), k
            assert np.array_equal(_predicted_label(sol.decisions), _predicted_label(ref.decisions))
            assert np.abs(sol.decisions - ref.decisions).max() <= 1e-6
        assert np.unique(sol.passes).size > 1  # the LBP folds take different paths

    def test_zero_feature_row_is_handled(self):
        x = np.array([[0.0, 0.0], [1.0, 0.5], [0.0, 0.0], [0.5, 1.0]])
        y = np.array([-1, 1, 1, -1])
        sol = solve_folds(x, y)
        assert ((sol.alpha >= 0.0) & (sol.alpha <= 1.0)).all()
        assert np.isfinite(sol.margins).all() and np.isfinite(sol.bias).all()
        assert (fold_violations(y, sol, 1.0)[sol.converged] <= 1e-6).all()

    def test_null_direction_without_descent_is_a_null_vector(self):
        # a zero gradient has no part outside the range of Q_FF, so the step
        # goes along a null vector instead
        face = np.array([[1.0, 1.0], [1.0, 1.0]])
        direction = _null_direction(face, np.zeros(2))
        assert np.abs(face @ direction).max() <= 1e-15
        assert 0.5 <= np.abs(direction).max() < 1.0

    @pytest.mark.kernel_independent
    def test_subnormal_diagonal_takes_the_zero_row_step(self):
        # rows of 6e-155 have a subnormal Q_ii: they keep a zero row's
        # alpha = C in every fold training on them, and the folds end as
        # coordinate descent ended them, to 12 significant digits
        x = np.array([[6.0e-155], [6.0e-155], [1.0], [0.5]])
        y = np.array([1, -1, 1, -1])
        tiny = ~np.eye(4, dtype=bool) & (np.arange(4) < 2)
        for c, decisions in (
            (1.0, [-0.25, -0.375, -0.375, 0.0]),
            (10.0, [6.0e-155, 6.0e-155, -2.0, 0.5]),
        ):
            sol = solve_folds(x, y, SolverConfig(c=c))
            assert (sol.alpha[tiny] == c).all()
            assert sol.converged.all()
            assert np.allclose(sol.decisions, decisions, rtol=1e-12, atol=1e-300)

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

    @pytest.mark.kernel_independent
    def test_stop_value_taken_once_per_pass(self, monkeypatch, synthetic_benchmark):
        # the benchmark cuts its segments at this module-level call: once per
        # solve, over every fold, after the active set; it sets `converged`
        calls = []
        stop_value = texscreen.classifier.projected_gradient

        def counted(*args):
            calls.append(stop_value(*args))
            return calls[-1]

        monkeypatch.setattr(texscreen.classifier, "projected_gradient", counted)
        rng = np.random.default_rng(107)
        y = np.array([e.label for e in synthetic_benchmark.entries])
        x = _frozen_tables(synthetic_benchmark, (FeatureKind.LBP,))[FeatureKind.LBP]
        configs = (SolverConfig(c=0.01), SolverConfig(c=0.1), SolverConfig(max_outer_iterations=1))
        problems = [(*_random_problem(rng, 12, 4), cfg) for cfg in configs]
        problems.append((x, y, SolverConfig(c=10.0, max_outer_iterations=1000)))
        unconverged = []
        for x, y, cfg in problems:
            calls.clear()
            sol = solve_folds(x, y, cfg)
            [violation] = calls
            assert violation.shape == (len(y),)
            assert np.array_equal(violation <= _TOLERANCE, sol.converged)
            unconverged.append(int((~sol.converged).sum()))
        assert unconverged == [0, 0, 12, 0]

    @pytest.mark.kernel_independent
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_bytes_match_earlier_pass_loop(self, data):
        # a fold that the coordinate-descent pass loop ended at its box
        # corner after one pass is optimal there, and the corner is its one
        # optimum: from the seed, the active set ends it there byte for byte.
        # Its KKT checks count 1 plus its changes from the seed, and with a
        # cap of 2 it can stop at the cap before it reaches the corner
        n = data.draw(st.integers(2, 10), label="n")
        d = data.draw(st.integers(1, 5), label="d")
        # entries 0 or at least 1e-3 in size, so no Q_ii underflows
        sized = st.floats(1e-3, 4.0) | st.floats(-4.0, -1e-3)
        values = st.sampled_from([0.0, 0.5, -1.0, 2.0]) | sized
        x = data.draw(hnp.arrays(np.float64, (n, d), elements=values), label="x")
        y = np.array(data.draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n)))
        cfg = SolverConfig(
            c=data.draw(st.sampled_from([0.01, 0.1, 1.0, 10.0]), label="c"),
            max_outer_iterations=data.draw(st.sampled_from([1, 2, 1000]), label="cap"),
        )
        got = solve_folds(x, y, cfg)
        want = solve_folds_reference(x, y, np.arange(n), cfg)
        corner = (want.passes == 1) & want.converged & (want.alpha == _bounds(n, cfg.c)).all(axis=1)
        assume(corner.any())
        reached = corner & (got.alpha == want.alpha).all(axis=1)
        if cfg.max_outer_iterations == 2:
            assert (got.passes[corner & ~reached] == 2).all()
        else:
            assert np.array_equal(reached, corner)
        for field in ("alpha", "margins", "bias", "converged"):
            got_rows, want_rows = getattr(got, field)[reached], getattr(want, field)[reached]
            assert got_rows.tobytes() == want_rows.tobytes(), field

    @pytest.mark.kernel_independent
    @settings(max_examples=300, deadline=None)
    @given(_few_valued_tables())
    # one round stacks two 2 x 2 faces, one singular (samples 1 and 2 are
    # equal with opposite labels) and one regular, so the stacked solve
    # fails and each face is solved alone
    @example(
        (
            np.array([[2.0, 0.0], [0.5, 2.0], [0.5, 2.0], [-1.0, 0.0], [0.0, 0.5]]),
            np.array([-1, -1, 1, 1, 1]),
            SolverConfig(c=10.0),
        )
    )
    def test_lockstep_bytes_match_per_fold(self, table):
        # the folds' lockstep rounds make the LAPACK solves and products of
        # one active set per fold, so they end in the same bits
        x, y, cfg = table
        got, want = solve_folds(x, y, cfg), solve_folds_per_fold(x, y, cfg)
        for field in SOLUTION_FIELDS:
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field

    @settings(max_examples=300, deadline=None)
    @given(_few_valued_tables())
    def test_every_fold_from_the_seed_matches_corner_first(self, table):
        # a fold optimal at its box corner has no other optimum, so at the
        # default cap the active set from the seed ends it where a check at
        # the corner would have, byte for byte; only its KKT checks differ.
        # Not kernel_independent: under OPENBLAS_CORETYPE=Prescott a product
        # rounds by its operands' 16-byte alignment, which differs between
        # the oracle's one-fold arrays and the lockstep rounds' stacks
        x, y, drawn = table
        cfg = SolverConfig(c=drawn.c)
        got = solve_folds(x, y, cfg)
        want = solve_folds_per_fold(x, y, cfg, corner_first=True)
        for field in ("alpha", "margins", "bias", "converged"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field

    @pytest.mark.kernel_independent
    def test_flat_step_never_cycles(self):
        # on the OpenBLAS kernel it was found on, fold 4's null direction held
        # a variable just released at its bound to a step of length 0, and
        # the partition alternated up to the cap; the negated direction
        # moves, and every fold converges
        cfg = SolverConfig(c=1290827936.552107)
        sol = solve_folds(CYCLING_TABLE, CYCLING_LABELS, cfg)
        assert sol.converged.all() and sol.passes.max() <= 7
        want = solve_folds_per_fold(CYCLING_TABLE, CYCLING_LABELS, cfg)
        for field in SOLUTION_FIELDS:
            assert getattr(sol, field).tobytes() == getattr(want, field).tobytes(), field

    @pytest.mark.kernel_independent
    def test_frozen_solutions_pinned(self, frozen_oracle):
        # each fold's partition at the loocv-solver settings (alpha at 0, at
        # C or free), and its decision to 1e-9: kernel rounding moves the
        # bits of a LAPACK solve, not these; reports pin only their signs
        y, oracle = frozen_oracle
        cfg = SolverConfig(c=10.0, max_outer_iterations=1000)
        for kind, counts, digest, decisions in FROZEN_PINS:
            sol = solve_folds(oracle[kind, cfg.c][0], y, cfg)
            at_c = sol.alpha == _bounds(len(y), cfg.c)
            codes = np.where(sol.alpha == 0.0, 0, np.where(at_c, 2, 1)).astype(np.int8)
            assert np.bincount(codes.ravel(), minlength=3).tolist() == counts
            assert hashlib.sha256(codes.tobytes()).hexdigest() == digest
            assert np.abs(sol.decisions - decisions).max() <= 1e-9
            assert sol.converged.all()

    @pytest.mark.parametrize(
        "seed, kind, target, c, leaving",
        [
            # converged folds end at violations up to 8.7e-8 here: below 1e-9,
            # 38 of them would stop unconverged
            (1, FeatureKind.GRAY, Resolution(64, 48), 1e9, 40),
            # one fold leaves its corner at a corner violation of 1.006e-4:
            # above that, it would be accepted at a non-optimal corner
            (62, FeatureKind.CONCAT, Resolution(300, 225), 10.0, 38),
            # 20 folds leave their corner, each after one KKT check
            (1, FeatureKind.LBP, Resolution(300, 225), 10.0, 20),
        ],
        ids=["gray-64x48-c1e9", "seed62-concat-300x225-c10", "lbp-300x225-c10"],
    )
    def test_tolerance_bracket(self, seed, kind, target, c, leaving):
        # the KKT tolerance sits between rounding and the smallest real
        # violation; passes == 1 does not mean a fold ended at its corner:
        # the warm start solves each LBP fold that leaves it unchanged, while
        # most folds that end there step back to it from the seed
        _, dataset = generate_synthetic(replace(FROZEN_SPEC, seed=seed))
        y = np.array([e.label for e in dataset.entries])
        x = feature_tables([e.image for e in dataset.entries], (kind,), target)[kind]
        sol = solve_folds(x, y, SolverConfig(c=c))
        left = (sol.alpha != _bounds(len(y), c)).any(axis=1)
        assert sol.converged.all()
        assert left.sum() == leaving
        if kind is FeatureKind.LBP:
            assert (sol.passes[left] == 1).all() and sol.passes[~left].max() == 2

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
        assert (fold_violations(y, sol, cfg.c)[sol.converged] <= _TOLERANCE).all()
        assert ((sol.passes >= 1) & (sol.passes <= cfg.max_outer_iterations)).all()
        assert sol.converged[sol.passes < cfg.max_outer_iterations].all()


@pytest.mark.kernel_independent
class TestPerFoldReference:
    """The batched folds against the per-fold solver they replace."""

    def _check(self, x, y, cfg):
        # both stop within the same tolerance: the same folds converge, and
        # those agree in label and within 1e-6 in decision
        sol = solve_folds(x, y, cfg)
        ref = loocv_reference(x, y, cfg)
        assert sol.converged.tolist() == [f.converged for f in ref]
        done = np.flatnonzero(sol.converged)
        assert _predicted_label(sol.decisions[done]).tolist() == [
            ref[k].predicted_label for k in done
        ]
        gap = np.abs(sol.decisions - [f.decision for f in ref])[done]
        assert gap.max(initial=0.0) <= 1e-6
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
            # coordinate descent takes over 400 passes here
            assert sol.converged.all() and sol.passes.max() <= 10

    def test_pass_cap_hit(self, synthetic_benchmark):
        y = np.array([e.label for e in synthetic_benchmark.entries])
        x = self._tables(synthetic_benchmark, (FeatureKind.LBP,), Resolution(64, 48))[
            FeatureKind.LBP
        ]
        sol = self._check(x, y, SolverConfig(c=10.0, max_outer_iterations=1))
        assert not sol.converged.any()

    @pytest.mark.parametrize("c", [1.0, 10.0])
    def test_frozen_tables_match_oracle(self, frozen_oracle, c):
        # the exact folds against coordinate descent run to 1e-9; at C=1
        # every fold is optimal at its box corner and every byte is the pass
        # loop's
        y, oracle = frozen_oracle
        for kind in (FeatureKind.LBP, FeatureKind.CONCAT):
            x, ref = oracle[kind, c]
            sol = solve_folds(x, y, SolverConfig(c=c))
            assert sol.converged.all()
            assert np.array_equal(_predicted_label(sol.decisions), _predicted_label(ref.decisions))
            assert np.abs(sol.decisions - ref.decisions).max() <= 1e-6
            if c == 1.0:
                want = solve_folds_reference(x, y, np.arange(len(y)), SolverConfig(c=c))
                for field in SOLUTION_FIELDS:
                    assert getattr(sol, field).tobytes() == getattr(want, field).tobytes(), field

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

    @pytest.mark.kernel_independent
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
            assert sol.margins[k, k] == 2.0 * base.margins[k, k]

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
            ([[1e200], [2e200], [-1e200]], [1, 1, -1], "their Gram matrix overflows"),
            ([[1e200, 1e200], [1e200, -1e200]], [1, -1], "their Gram matrix overflows"),
        ],
    )
    def test_rejects_unsolvable_input(self, features, labels, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            solve_folds(features, labels)

    @pytest.mark.kernel_independent
    @settings(max_examples=300, deadline=None)
    @given(_scaled_tables())
    @example((np.array([[0.0], [3e99], [7e99], [-1e100]]), np.array([-1, 1, -1, 1]), 1.0))
    @example((np.array([[1e153], [2e153], [-1e153]]), np.array([1, 1, -1]), 1e10))
    @example((np.array([[0.3], [0.3], [0.0]]), np.array([-1, -1, 1]), 1.2e308))
    def test_any_scale_solves_or_rejects_without_warning(self, table):
        # the overflow check at the input is the solver's one scale rule: past
        # it, no floating-point warning, every alpha in its box, finite decisions
        x, y, c = table
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                sol = solve_folds(x, y, SolverConfig(c=c))
            except ValueError as err:
                assert "their Gram matrix overflows" in str(err)
                return
        bounds = np.where(np.eye(len(y), dtype=bool), 0.0, c)
        assert ((sol.alpha >= 0.0) & (sol.alpha <= bounds)).all()
        assert np.isfinite(sol.decisions).all()

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
            {"c": float("nan")},
            {"c": float("inf")},
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
        # also infinite c, and non-integral or bool pass caps
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
        assert cfg.max_outer_iterations == 1000
        # the KKT tolerance is a constant, not a setting
        assert [f.name for f in fields(SolverConfig)] == ["c", "max_outer_iterations"]
