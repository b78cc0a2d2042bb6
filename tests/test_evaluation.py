import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import feature_reference, report_from_confusion, train_on_all
from texscreen.classifier import SolverConfig
from texscreen.dataset import DatasetEntry, LabeledDataset
from texscreen.evaluation import (
    _CHUNK_PIXELS,
    DEFAULT_SWEEP_RESOLUTIONS,
    _report,
    feature_tables,
    loocv,
    render_percent,
    report_to_json,
    resolution_sweep,
    sweep_to_json,
    sweep_to_table,
)
from texscreen.features import FeatureKind, extract_feature
from texscreen.imagecore import GrayImage, Resolution, resize_bilinear


def _tiny_dataset(n_pairs=2, size=10, seed=7):
    """Small two-class dataset: smooth ramps vs checkerboards."""
    rng = np.random.default_rng(seed)
    entries = []
    for k in range(n_pairs):
        ramp = np.add.outer(np.arange(size), np.arange(size)) * 9 + int(rng.integers(0, 30))
        ramp = np.clip(ramp, 0, 255)
        checker = np.indices((size, size)).sum(axis=0) % 2 * 200 + int(rng.integers(0, 30))
        checker = np.clip(checker, 0, 255)
        entries.append(DatasetEntry(f"ramp-{k}", GrayImage(ramp), -1, 1))
        entries.append(DatasetEntry(f"checker-{k}", GrayImage(checker), 1, 1))
    return LabeledDataset(tuple(entries))


class TestRenderPercent:
    @pytest.mark.parametrize(
        "num,den,expected",
        [
            (57, 59, "96.6%"),
            (23, 24, "95.8%"),
            (34, 35, "97.1%"),
            (39, 40, "97.5%"),
            (20, 20, "100.0%"),
            (19, 20, "95.0%"),
            (0, 1, "0.0%"),
        ],
    )
    def test_one_decimal_round_half_up(self, num, den, expected):
        assert render_percent(num, den) == expected

    def test_half_up_at_boundary(self):
        # 39/40 = 97.5 exactly; half-up keeps the 5
        assert render_percent(39, 40) == "97.5%"
        # 1/16 = 6.25% rounds up to 6.3%
        assert render_percent(1, 16) == "6.3%"

    def test_empty_class_has_no_percent(self):
        with pytest.raises(ValueError, match="denominator must be positive"):
            render_percent(1, 0)


class TestBuildReport:
    def test_full_dataset_confusion(self):
        report = report_from_confusion(23, 1, 1, 34)
        assert report.n == 59 and report.correct == 57
        assert report.confusion.tolist() == [[23, 1], [1, 34]]
        assert render_percent(report.correct, report.n) == "96.6%"
        assert render_percent(report.confusion[0, 0], report.normal_total) == "95.8%"
        assert render_percent(report.confusion[1, 1], report.adulterated_total) == "97.1%"
        assert report.misclassified_ids == ("s023", "s024")  # in dataset order

    def test_balanced_subset_confusion(self):
        report = report_from_confusion(20, 0, 1, 19)
        assert render_percent(report.correct, report.n) == "97.5%"
        assert render_percent(report.confusion[0, 0], report.normal_total) == "100.0%"
        assert render_percent(report.confusion[1, 1], report.adulterated_total) == "95.0%"

    def test_perfect_classification(self):
        report = report_from_confusion(20, 0, 0, 20)
        assert report.correct == 40 and report.n == 40
        assert render_percent(report.correct, report.n) == "100.0%"
        assert report.misclassified_ids == ()

    def test_single_incorrect_fold(self):
        only = LabeledDataset((DatasetEntry("only", None, 1, 1),))
        report = _report(
            only, np.array([1]), FeatureKind.LBP, np.array([-0.25]), np.array([False])
        )
        assert report.n == 1 and report.correct == 0 and report.unconverged == 1
        assert render_percent(report.correct, report.n) == "0.0%"
        assert report.misclassified_ids == ("only",)
        per_class = json.loads(report_to_json(report))["per_class"]
        assert per_class["normal"]["accuracy"] is None  # no normal folds present
        assert per_class["adulterated"]["accuracy"] == 0.0

    def test_row_sums_equal_class_sizes(self):
        report = report_from_confusion(5, 2, 3, 7)
        assert report.normal_total == 7
        assert report.adulterated_total == 10
        assert report.global_accuracy == 12 / 17


class TestLoocv:
    def test_every_sample_held_out_once(self):
        data = _tiny_dataset(n_pairs=2)
        report = loocv(data, FeatureKind.LBP, Resolution(8, 8))
        assert report.n == len(data)
        assert (report.normal_total, report.adulterated_total) == (2, 2)
        assert set(report.misclassified_ids) <= {e.sample_id for e in data.entries}

    def test_separable_dataset_is_perfect(self, synthetic_benchmark):
        dataset = synthetic_benchmark
        report = loocv(dataset, FeatureKind.LBP, Resolution(64, 48))
        assert report.global_accuracy == 1.0

    def test_three_entries_always_have_a_single_class_fold(self):
        # a 2+1 label split cannot satisfy the every-fold-two-class rule
        data = _tiny_dataset(n_pairs=2)
        three = LabeledDataset(data.entries[:3])
        with pytest.raises(ValueError, match="untrainable"):
            loocv(three, FeatureKind.GRAY, Resolution(8, 8))

    def test_untrainable_fold_is_named(self):
        # the only adulterated entry sits in the middle of the dataset
        e = _tiny_dataset(n_pairs=3).entries
        lone = LabeledDataset((e[0], e[2], e[3], e[4]))
        assert [x.label for x in lone.entries] == [-1, -1, 1, -1]
        message = (
            "fold holding out 'checker-1' is untrainable: "
            "training set must contain both labels"
        )
        for run in _LOOCV_RUNS:
            with pytest.raises(ValueError) as info:
                run(lone)
            assert str(info.value) == message

    def test_target_below_lbp_minimum_rejected(self):
        data = _tiny_dataset()
        with pytest.raises(ValueError, match="at least 3x3"):
            loocv(data, FeatureKind.GRAY, Resolution(2, 2))

    def test_sweep_checks_every_row_before_resizing(self, monkeypatch):
        calls = []

        def counted(image, target):
            calls.append(target)
            return resize_bilinear(image, target)

        monkeypatch.setattr("texscreen.evaluation.resize_bilinear", counted)
        data = _tiny_dataset()
        with pytest.raises(ValueError, match="evaluation resolutions must be at least 3x3"):
            resolution_sweep(data, [Resolution(8, 8), Resolution(10, 10), Resolution(2, 2)])
        assert calls == []

    def test_deterministic_reports(self):
        data = _tiny_dataset(n_pairs=3)
        r1 = loocv(data, FeatureKind.CONCAT, Resolution(8, 8))
        r2 = loocv(data, FeatureKind.CONCAT, Resolution(8, 8))
        assert report_to_json(r1) == report_to_json(r2)

    def test_resubstitution_is_at_least_loocv(self, synthetic_benchmark):
        dataset = synthetic_benchmark
        target = Resolution(64, 48)
        for kind in (FeatureKind.LBP, FeatureKind.GRAY):
            vectors = [
                extract_feature([resize_bilinear(e.image, target)], kind)[0]
                for e in dataset.entries
            ]
            labels = [e.label for e in dataset.entries]
            weights, bias = train_on_all(np.stack(vectors), labels, SolverConfig())
            predictions = np.where(np.stack(vectors) @ weights + bias >= 0, 1, -1)
            resub = np.mean(predictions == labels)
            cv = loocv(dataset, kind, target).global_accuracy
            assert resub >= cv


class TestFeatureTable:
    KINDS = (FeatureKind.LBP, FeatureKind.GRAY, FeatureKind.CONCAT)

    # a chunk holds 35 images at 50x37, so the 40 images fill two chunks;
    # all 40 fit in one at 7x11
    @pytest.mark.parametrize("target", [Resolution(50, 37), Resolution(7, 11)])
    def test_rows_equal_unfused_extraction(self, synthetic_benchmark, target):
        dataset = synthetic_benchmark
        assert _CHUNK_PIXELS // (target.width * target.height) > 1
        tables = feature_tables([e.image for e in dataset.entries], self.KINDS, target)
        for kind, d in zip(self.KINDS, (256, 256, 512)):
            matrix = tables[kind]
            assert matrix.shape == (len(dataset), d)
            assert matrix.dtype == np.float64
            for row, entry in zip(matrix, dataset.entries):
                expected = feature_reference(resize_bilinear(entry.image, target), kind)
                assert row.tobytes() == expected.tobytes()

    @pytest.mark.kernel_independent
    @settings(max_examples=40, deadline=None)
    @given(
        # (height, width); 129x256 is just over 2^15 pixels, one image a chunk
        st.one_of(
            st.tuples(st.integers(3, 40), st.integers(3, 40)),
            st.sampled_from([(3, 3), (48, 64), (129, 256)]),
        ),
        st.sampled_from(["one", "per-1", "per", "per+1"]),
        st.sampled_from([2, 3, 256]),
        st.integers(0, 2**32 - 1),
        st.data(),
    )
    @example((48, 64), "per+1", 3, 0, None)
    @example((225, 300), "per+1", 256, 1, None)
    def test_rows_match_oracle_around_chunk_boundary(self, shape, count, levels, seed, data):
        # batches one image short of, at and one past a full chunk; at 2 or
        # 3 gray levels most neighbor comparisons are ties
        height, width = shape
        per = max(1, _CHUNK_PIXELS // (height * width))
        n = max(1, {"one": 1, "per-1": per - 1, "per": per, "per+1": per + 1}[count])
        rng = np.random.default_rng(seed)
        images = [GrayImage(p) for p in rng.integers(0, levels, (n, height, width))]
        tables = feature_tables(images, self.KINDS, Resolution(width, height))
        # the oracle is slow, so check the first and last images of every
        # chunk and of the batch, and a few drawn ones
        rows = {0, n - 1} | {i for lo in range(per, n, per) for i in (lo - 1, lo)}
        if data is not None:
            rows |= set(data.draw(st.lists(st.integers(0, n - 1), max_size=4), label="rows"))
        for i in sorted(rows):
            want = feature_reference(images[i], FeatureKind.CONCAT)
            for kind, block in zip(self.KINDS, (want[:256], want[256:], want)):
                assert tables[kind][i].tobytes() == block.tobytes()

    def test_only_requested_kinds(self):
        data = _tiny_dataset()
        images = [e.image for e in data.entries]
        tables = feature_tables(images, (FeatureKind.CONCAT,), Resolution(8, 8))
        assert list(tables) == [FeatureKind.CONCAT]

    def test_no_images_give_empty_tables(self):
        tables = feature_tables([], self.KINDS, Resolution(8, 8))
        assert [tables[kind].shape for kind in self.KINDS] == [(0, 256), (0, 256), (0, 512)]

    def test_increasing_gray_map_leaves_lbp_run_unchanged(self, synthetic_benchmark):
        # at native size resizing is the identity, and LBP codes see only the
        # order of gray levels: a random order-preserving remap of the levels
        # every image uses changes no LBP table entry and no report byte
        dataset = synthetic_benchmark
        native = Resolution(64, 48)
        levels = np.unique([e.image.pixels for e in dataset.entries])
        remap = np.zeros(256, dtype=np.uint8)
        remap[levels] = np.sort(np.random.default_rng(131).choice(256, levels.size, replace=False))
        assert not np.array_equal(remap[levels], levels)
        mapped = LabeledDataset(
            tuple(replace(e, image=GrayImage(remap[e.image.pixels])) for e in dataset.entries)
        )
        kinds = (FeatureKind.LBP,)
        before = feature_tables([e.image for e in dataset.entries], kinds, native)
        after = feature_tables([e.image for e in mapped.entries], kinds, native)
        assert before[FeatureKind.LBP].tobytes() == after[FeatureKind.LBP].tobytes()
        assert report_to_json(loocv(mapped, FeatureKind.LBP, native)) == report_to_json(
            loocv(dataset, FeatureKind.LBP, native)
        )

    def test_sweep_row_matches_per_kind_loocv(self, synthetic_benchmark):
        dataset = synthetic_benchmark
        target = Resolution(50, 37)
        row = resolution_sweep(dataset, [target])[target]
        assert {kind: r.correct for kind, r in row.items()} == {
            kind: loocv(dataset, kind, target).correct for kind in self.KINDS
        }


class TestSweep:
    def test_single_resolution_row(self):
        data = _tiny_dataset(n_pairs=2)
        sweep = resolution_sweep(data, [Resolution(8, 8)])
        assert list(sweep) == [Resolution(8, 8)]
        row = sweep[Resolution(8, 8)]
        assert list(row) == [FeatureKind.LBP, FeatureKind.GRAY, FeatureKind.CONCAT]
        for report in row.values():
            assert 0 <= report.correct <= report.n == len(data)

    def test_rows_follow_request_order(self):
        data = _tiny_dataset(n_pairs=2)
        resolutions = [Resolution(10, 10), Resolution(8, 8)]
        assert list(resolution_sweep(data, resolutions)) == resolutions

    def test_duplicate_resolutions_rejected(self):
        data = _tiny_dataset()
        with pytest.raises(ValueError, match="duplicate"):
            resolution_sweep(data, [Resolution(8, 8), Resolution(8, 8)])

    def test_empty_resolution_list_rejected(self):
        with pytest.raises(ValueError, match="at least one resolution is required"):
            resolution_sweep(_tiny_dataset(), [])

    def test_default_grid_pairs(self):
        expected = [
            (50, 37), (75, 56), (100, 75), (125, 94), (150, 113), (175, 131),
            (200, 150), (225, 169), (250, 188), (275, 207), (300, 225),
        ]
        assert [(r.width, r.height) for r in DEFAULT_SWEEP_RESOLUTIONS] == expected

    def test_sweep_serialization_deterministic(self):
        data = _tiny_dataset(n_pairs=2)
        resolutions = [Resolution(8, 8), Resolution(12, 12)]
        r1 = resolution_sweep(data, resolutions)
        r2 = resolution_sweep(data, resolutions)
        assert sweep_to_json(r1) == sweep_to_json(r2)
        assert sweep_to_table(r1) == sweep_to_table(r2)
        assert sweep_to_table(r1).splitlines()[0] == "width,height,acc_lbp,acc_gray,acc_concat"


class TestSerialization:
    def test_report_json_fields(self):
        report = report_from_confusion(23, 1, 1, 34)
        obj = json.loads(report_to_json(report))
        assert obj["n"] == 59
        assert obj["correct"] == 57
        assert obj["global_percent"] == "96.6%"
        assert obj["per_class"]["normal"]["percent"] == "95.8%"
        assert obj["per_class"]["adulterated"]["percent"] == "97.1%"
        assert obj["confusion"] == [[23, 1], [1, 34]]


# both ways a leave-one-out run starts; each checks LOOCV's preconditions
_LOOCV_RUNS = (
    lambda data: loocv(data, FeatureKind.LBP, Resolution(8, 8)),
    lambda data: resolution_sweep(data, (Resolution(8, 8),)),
)


class TestDatasetTypes:
    def test_duplicate_ids_rejected(self):
        img = GrayImage(np.zeros((8, 8), dtype=np.uint8))
        entries = (
            DatasetEntry("a", img, 1, 1),
            DatasetEntry("a", img, -1, 1),
            DatasetEntry("b", img, 1, 2),
        )
        with pytest.raises(ValueError, match="duplicate"):
            LabeledDataset(entries)

    def test_both_labels_required(self):
        img = GrayImage(np.zeros((8, 8), dtype=np.uint8))
        data = LabeledDataset(tuple(DatasetEntry(f"e{i}", img, 1, 1) for i in range(3)))
        for run in _LOOCV_RUNS:
            with pytest.raises(ValueError, match="dataset must contain both labels"):
                run(data)

    def test_minimum_size(self):
        img = GrayImage(np.zeros((8, 8), dtype=np.uint8))
        data = LabeledDataset((DatasetEntry("a", img, 1, 1), DatasetEntry("b", img, -1, 1)))
        # each label needs a second entry, so no fold trains on one class
        for run in _LOOCV_RUNS:
            with pytest.raises(ValueError, match="fold holding out 'a' is untrainable"):
                run(data)

    def test_images_required(self):
        data = _tiny_dataset(n_pairs=2)
        undecoded = LabeledDataset(
            data.entries[:-1] + (replace(data.entries[-1], image=None),)
        )
        for run in _LOOCV_RUNS:
            with pytest.raises(ValueError, match="'checker-1' has no decoded image"):
                run(undecoded)
