import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import lbp_reference
from texscreen.features import (
    Comparator,
    FeatureKind,
    extract_feature,
    format_feature,
    lbp_transform,
)
from texscreen.imagecore import GrayImage


class TestLbpTransform:
    def test_constant_image_strict_greater(self):
        codes = lbp_transform(GrayImage(np.full((6, 4), 77)))
        assert (codes == 0).all()

    def test_constant_image_greater_equal(self):
        codes = lbp_transform(GrayImage(np.full((6, 4), 77)), Comparator.GREATER_EQUAL)
        assert (codes == 255).all()

    def test_hand_case(self):
        img = GrayImage([[6, 5, 2], [7, 5, 1], [9, 8, 7]])
        assert lbp_transform(img).tolist() == [[143]]

    def test_dimensions_shrink_by_two(self):
        img = GrayImage(np.zeros((10, 7), dtype=np.uint8))
        codes = lbp_transform(img)
        assert codes.shape == (8, 5)
        assert codes.dtype == np.uint8

    def test_too_small_image_rejected(self):
        with pytest.raises(ValueError):
            lbp_transform(GrayImage(np.zeros((2, 5), dtype=np.uint8)))

    def test_comparator_value_selects_its_rule(self):
        # two gray levels, so about half of all neighbors tie with their center
        img = GrayImage(np.random.default_rng(11).integers(0, 2, size=(9, 7)))
        for cmp in Comparator:
            assert np.array_equal(lbp_transform(img, cmp.value), lbp_transform(img, cmp))
            assert np.array_equal(
                extract_feature(img, FeatureKind.LBP, cmp.value),
                extract_feature(img, FeatureKind.LBP, cmp),
            )
        assert not np.array_equal(lbp_transform(img, "gt"), lbp_transform(img, "ge"))
        with pytest.raises(ValueError, match="bogus"):
            lbp_transform(img, "bogus")

    def test_gray_shift_invariance(self):
        rng = np.random.default_rng(23)
        pixels = rng.integers(0, 200, size=(9, 9))
        base = lbp_transform(GrayImage(pixels))
        shifted = lbp_transform(GrayImage(pixels + 55))
        assert np.array_equal(base, shifted)

    @settings(max_examples=200, deadline=None)
    @given(
        hnp.arrays(np.uint8, hnp.array_shapes(min_dims=2, max_dims=2, min_side=3, max_side=24)),
        st.data(),
    )
    def test_constant_shift_invariance_property(self, pixels, data):
        shift = data.draw(st.integers(0, 255 - int(pixels.max())), label="shift")
        shifted = GrayImage(pixels.astype(np.int64) + shift)
        for cmp in Comparator:
            assert np.array_equal(
                lbp_transform(GrayImage(pixels), cmp), lbp_transform(shifted, cmp)
            )

    def test_comparators_agree_without_ties(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            # all pixel values distinct, so no center-neighbor ties exist
            pixels = rng.permutation(256)[:25].reshape(5, 5)
            gt = lbp_transform(GrayImage(pixels), Comparator.STRICT_GREATER)
            ge = lbp_transform(GrayImage(pixels), Comparator.GREATER_EQUAL)
            assert np.array_equal(gt, ge)

    def test_rotation_changes_histogram(self):
        rng = np.random.default_rng(31)
        pixels = rng.integers(0, 256, size=(12, 16))
        original = extract_feature(GrayImage(pixels), FeatureKind.LBP)
        rotated = extract_feature(GrayImage(np.rot90(pixels).copy()), FeatureKind.LBP)
        assert np.abs(original - rotated).sum() > 0

    @pytest.mark.parametrize("cmp", [Comparator.STRICT_GREATER, Comparator.GREATER_EQUAL])
    def test_matches_bitwise_reference_on_random_images(self, cmp):
        rng = np.random.default_rng(37)
        strict = cmp is Comparator.STRICT_GREATER
        for _ in range(100):
            pixels = rng.integers(0, 256, size=(5, 5))
            expected = lbp_reference(pixels.tolist(), strict=strict)
            got = lbp_transform(GrayImage(pixels), cmp)
            assert got.tolist() == expected

    @pytest.mark.parametrize("cmp", [Comparator.STRICT_GREATER, Comparator.GREATER_EQUAL])
    @pytest.mark.parametrize(
        "shape", [(3, 3), (3, 17), (17, 3), (40, 60), (3, 4), (4, 3), (5, 7), (9, 4)]
    )
    def test_matches_bitwise_reference_with_ties(self, cmp, shape):
        # four gray levels make center-neighbor ties common in every direction;
        # codes run over the flattened pixels, so neighbors wrap to the next
        # row at the side borders, and those codes must all be cut away
        rng = np.random.default_rng(43)
        strict = cmp is Comparator.STRICT_GREATER
        for _ in range(20):
            pixels = rng.integers(0, 4, size=shape)
            expected = lbp_reference(pixels.tolist(), strict=strict)
            for layout in (pixels, np.asfortranarray(pixels)):
                got = lbp_transform(GrayImage(layout), cmp)
                assert got.dtype == np.uint8 and got.flags.c_contiguous
                assert got.shape == (shape[0] - 2, shape[1] - 2)
                assert got.tolist() == expected

    @settings(max_examples=200, deadline=None)
    @given(
        hnp.arrays(
            np.uint8,
            hnp.array_shapes(min_dims=2, max_dims=2, min_side=3, max_side=24),
            elements=st.integers(0, 3),
        )
    )
    def test_quarter_turn_rotates_codes_two_bits(self, pixels):
        # turning the image a quarter counterclockwise moves each neighbor
        # two places round the ring: E becomes N, so code bit k becomes k + 2
        for cmp in Comparator:
            codes = lbp_transform(GrayImage(pixels), cmp)
            turned = lbp_transform(GrayImage(np.rot90(pixels)), cmp)
            assert np.array_equal(turned, np.rot90((codes << 2) | (codes >> 6)))

    @settings(max_examples=200, deadline=None)
    @given(
        hnp.arrays(
            np.uint8,
            hnp.array_shapes(min_dims=2, max_dims=2, min_side=3, max_side=24),
            elements=st.integers(0, 3),
        ),
        st.lists(st.integers(0, 255), min_size=4, max_size=4, unique=True),
    )
    def test_strictly_increasing_gray_map_invariance(self, pixels, levels):
        # codes compare neighbors with centers only, so any order-preserving
        # remap of the gray levels, not just a shift, leaves them unchanged
        mapped = np.array(sorted(levels), dtype=np.uint8)[pixels]
        for cmp in Comparator:
            assert np.array_equal(
                lbp_transform(GrayImage(mapped), cmp), lbp_transform(GrayImage(pixels), cmp)
            )


def _counts(fv, cells):
    """The bin counts an L1-normalized histogram of `cells` values stands for."""
    counts = np.rint(fv * cells)
    assert np.abs(fv * cells - counts).max() < 1e-9
    return counts.astype(np.int64)


class TestHistograms:
    def test_lbp_histogram_single_value_mass(self):
        # a constant 5x5 image has nine interior codes, all 0 (strict)
        h = _counts(extract_feature(GrayImage(np.full((5, 5), 40)), FeatureKind.LBP), 9)
        assert h[0] == 9
        assert h[1:].sum() == 0
        assert h.sum() == 9

    def test_lbp_histogram_single_cell(self):
        fv = extract_feature(GrayImage([[6, 5, 2], [7, 5, 1], [9, 8, 7]]), FeatureKind.LBP)
        h = _counts(fv, 1)
        assert h[143] == 1
        assert h.sum() == 1

    def test_mass_conservation(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            h_, w_ = rng.integers(3, 20, size=2)
            img = GrayImage(rng.integers(0, 256, size=(h_, w_)))
            cells = (h_ - 2) * (w_ - 2)
            hist = _counts(extract_feature(img, FeatureKind.LBP), cells)
            assert np.array_equal(hist, np.bincount(lbp_transform(img).ravel(), minlength=256))
            assert hist.sum() == cells

    def test_gray_histogram_counts(self):
        h = _counts(extract_feature(GrayImage([[0, 0], [255, 255]]), FeatureKind.GRAY), 4)
        assert h[0] == 2 and h[255] == 2
        assert h.sum() == 4

    def test_gray_histogram_constant(self):
        h = _counts(extract_feature(GrayImage(np.full((4, 5), 9)), FeatureKind.GRAY), 20)
        assert h[9] == 20 and h.sum() == 20

    def test_gray_histogram_permutation_invariant(self):
        rng = np.random.default_rng(43)
        pixels = rng.integers(0, 256, size=(6, 7))
        shuffled = rng.permutation(pixels.ravel()).reshape(7, 6)
        a = extract_feature(GrayImage(pixels), FeatureKind.GRAY)
        b = extract_feature(GrayImage(shuffled), FeatureKind.GRAY)
        assert np.array_equal(a, b)


class TestNormalizeAndConcat:
    def test_single_mass(self):
        for kind in (FeatureKind.LBP, FeatureKind.GRAY):
            fv = extract_feature(GrayImage(np.full((5, 5), 0)), kind)
            assert fv[0] == 1.0
            assert fv[1:].sum() == 0.0

    def test_equal_split(self):
        fv = extract_feature(GrayImage([[0, 1]]), FeatureKind.GRAY)
        assert fv[0] == 0.5 and fv[1] == 0.5

    def test_normalized_sum_is_one(self):
        rng = np.random.default_rng(47)
        for _ in range(10):
            img = GrayImage(rng.integers(0, 50, size=rng.integers(3, 20, size=2)))
            for kind in (FeatureKind.LBP, FeatureKind.GRAY):
                fv = extract_feature(img, kind)
                assert abs(fv.sum() - 1.0) < 1e-12

    def test_concat_block_placement(self):
        # a constant image has every LBP code 0 (strict) and every pixel at 255
        fv = extract_feature(GrayImage(np.full((4, 5), 255)), FeatureKind.CONCAT)
        assert fv.dtype == np.float64
        assert fv.shape == (512,)
        assert fv[0] == 1.0 and fv[511] == 1.0
        assert fv.sum() == 2.0

    def test_concat_slicing_recovers_blocks(self):
        rng = np.random.default_rng(53)
        img = GrayImage(rng.integers(0, 256, size=(9, 8)))
        fv = extract_feature(img, FeatureKind.CONCAT, Comparator.GREATER_EQUAL)
        codes = lbp_transform(img, Comparator.GREATER_EQUAL)
        lbp = np.bincount(codes.ravel(), minlength=256) / codes.size
        gray = np.bincount(img.pixels.ravel(), minlength=256) / img.pixels.size
        assert np.array_equal(fv[:256], lbp)
        assert np.array_equal(fv[256:], gray)
        lbp_alone = extract_feature(img, FeatureKind.LBP, Comparator.GREATER_EQUAL)
        assert np.array_equal(fv[:256], lbp_alone)
        assert np.array_equal(fv[256:], extract_feature(img, FeatureKind.GRAY))


class TestExtractAndSerialize:
    def test_extract_kinds(self):
        rng = np.random.default_rng(59)
        img = GrayImage(rng.integers(0, 256, size=(10, 12)))
        lbp = extract_feature(img, FeatureKind.LBP)
        gray = extract_feature(img, FeatureKind.GRAY)
        both = extract_feature(img, FeatureKind.CONCAT)
        assert lbp.shape == gray.shape == (256,)
        assert abs(lbp.sum() - 1.0) < 1e-9
        assert abs(gray.sum() - 1.0) < 1e-9
        assert abs(both.sum() - 2.0) < 1e-9
        assert np.array_equal(both, np.concatenate([lbp, gray]))

    def test_format_parse_roundtrip_exact(self):
        # 17 significant digits: every value reads back exactly
        rng = np.random.default_rng(61)
        for kind in (FeatureKind.LBP, FeatureKind.GRAY, FeatureKind.CONCAT):
            v = rng.random(512 if kind is FeatureKind.CONCAT else 256)
            v /= v.sum()
            tokens = format_feature(kind, v).split(",")
            assert tokens[0] == kind.value
            assert len(tokens) == 1 + v.shape[0]
            for token, value in zip(tokens[1:], v):
                assert float(token) == value

    def test_format_matches_numpy_scalar_form(self):
        # Python floats print each value as float64 scalars do: extremes,
        # subnormals, values one ulp off, and histogram rows
        edges = [0.0, 5e-324, 2.0**-1074, 1 / 3, 1 - 2.0**-53, 1.0, 2.0**-1022, 0.1]
        rng = np.random.default_rng(67)
        counts = rng.integers(0, 40, size=(4, 256))
        counts[0, 1:] = 0  # one bin holds everything
        rows = [np.array(edges)] + list(counts / counts.sum(axis=1, keepdims=True))
        rows.append(extract_feature(GrayImage(rng.integers(0, 256, (9, 11))), FeatureKind.CONCAT))
        for row in rows:
            want = ",".join(["lbp"] + [f"{np.float64(v):.17g}" for v in row])
            assert format_feature(FeatureKind.LBP, row) == want
