import hashlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import FROZEN_SPEC
from texscreen.dataset import (
    DatasetEntry,
    LabeledDataset,
    ManifestError,
    SplitMix64,
    SyntheticSpec,
    filter_group,
    generate_synthetic,
    load_manifest,
    serialize_manifest,
)
from texscreen.features import FeatureKind, extract_feature
from texscreen.imagecore import GrayImage


# characters that `str.splitlines` splits on besides CR and LF
_UNICODE_LINE_BREAKS = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
# any id or path text but CR, LF (which end a line) and NUL (no path holds one)
_MANIFEST_FIELD = st.text(
    st.one_of(
        st.characters(exclude_categories=("Cs",), exclude_characters="\r\n\0"),
        st.sampled_from(_UNICODE_LINE_BREAKS),
    ),
    min_size=1,
    max_size=12,
)


def _table_shaped_manifest():
    """Two-group layout of image-less entries: 20+20 in group 1, 4+15 in group 2."""
    layout = (("g1-n", -1, 1, 20), ("g1-a", 1, 1, 20), ("g2-n", -1, 2, 4), ("g2-a", 1, 2, 15))
    entries = []
    for prefix, label, group, count in layout:
        for i in range(count):
            sample_id = f"{prefix}{i:02d}"
            entries.append(DatasetEntry(sample_id, None, label, group, f"{sample_id}.pgm"))
    return LabeledDataset(tuple(entries))


class TestLoadManifest:
    def test_two_valid_lines(self):
        text = "id,path,label,group\na,one.pgm,normal,1\nb,two.pgm,adulterated,2\n"
        manifest = load_manifest(text)
        assert len(manifest) == 2
        assert manifest.entries[0] == DatasetEntry("a", None, -1, 1, "one.pgm")
        assert manifest.entries[1] == DatasetEntry("b", None, 1, 2, "two.pgm")

    def test_accepts_bytes(self):
        manifest = load_manifest(b"id,path,label,group\na,x.pgm,normal,1\n")
        assert len(manifest) == 1

    def test_unknown_label_names_line(self):
        text = "id,path,label,group\na,x.pgm,normal,1\nb,y.pgm,fresh,1\n"
        with pytest.raises(ManifestError, match="fresh") as err:
            load_manifest(text)
        assert err.value.line == 3

    def test_duplicate_id_names_line(self):
        text = (
            "id,path,label,group\n"
            "a,1.pgm,normal,1\n"
            "b,2.pgm,normal,1\n"
            "c,3.pgm,adulterated,2\n"
            "a,4.pgm,adulterated,2\n"
        )
        with pytest.raises(ManifestError, match="duplicate") as err:
            load_manifest(text)
        assert err.value.line == 5

    def test_unknown_group_names_line(self):
        with pytest.raises(ManifestError, match="group") as err:
            load_manifest("id,path,label,group\na,x.pgm,normal,3\n")
        assert err.value.line == 2

    def test_missing_field_names_line(self):
        with pytest.raises(ManifestError, match="4 fields") as err:
            load_manifest("id,path,label,group\na,x.pgm,normal\n")
        assert err.value.line == 2

    def test_bad_header_rejected(self):
        with pytest.raises(ManifestError) as err:
            load_manifest("id,file,label,group\na,x.pgm,normal,1\n")
        assert err.value.line == 1

    def test_empty_id_names_line(self):
        with pytest.raises(ManifestError, match="sample id") as err:
            load_manifest("id,path,label,group\na,x.pgm,normal,1\n,y.pgm,normal,1\n")
        assert err.value.line == 3

    def test_empty_path_rejected(self):
        with pytest.raises(ManifestError, match="path"):
            load_manifest("id,path,label,group\na,,normal,1\n")

    def test_nul_in_path_names_line(self):
        with pytest.raises(ManifestError, match="NUL") as err:
            load_manifest("id,path,label,group\na,x.pgm,normal,1\nb,y\0.pgm,normal,1\n")
        assert err.value.line == 3

    def test_roundtrip_identity(self):
        manifest = _table_shaped_manifest()
        assert load_manifest(serialize_manifest(manifest)) == manifest

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(
                _MANIFEST_FIELD, _MANIFEST_FIELD, st.sampled_from([1, -1]), st.sampled_from([1, 2])
            ),
            max_size=6,
            unique_by=lambda row: row[0],
        )
    )
    @example([(f"id{ch}", f"p{ch}.pgm", 1, 1) for ch in _UNICODE_LINE_BREAKS])
    def test_roundtrip_any_id_and_path(self, rows):
        manifest = LabeledDataset(
            tuple(DatasetEntry(i, None, label, group, path) for i, path, label, group in rows)
        )
        text = serialize_manifest(manifest)
        assert load_manifest(text) == manifest
        assert load_manifest(text.encode("utf-8")) == manifest

    def test_non_utf8_bytes_name_line(self):
        with pytest.raises(ManifestError, match="UTF-8") as err:
            load_manifest(b"id,path,label,group\na,x.pgm,normal,1\nb,\xff.pgm,normal,1\n")
        assert err.value.line == 3

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            st.text(),
            st.text().map(lambda t: "id,path,label,group\n" + t),
            st.binary().map(lambda b: b"id,path,label,group\n" + b),
        )
    )
    def test_arbitrary_input_raises_only_manifest_errors(self, data):
        try:
            load_manifest(data)
        except ManifestError:
            pass


class TestFilterGroup:
    def test_group_one_has_forty(self):
        assert len(filter_group(_table_shaped_manifest(), 1)) == 40

    def test_group_two_has_nineteen(self):
        assert len(filter_group(_table_shaped_manifest(), 2)) == 19

    def test_absent_group_yields_empty(self):
        only_one = tuple(e for e in _table_shaped_manifest().entries if e.group == 1)
        assert len(filter_group(LabeledDataset(only_one), 2)) == 0

    def test_order_preserved(self):
        manifest = _table_shaped_manifest()
        filtered = filter_group(manifest, 2)
        original_order = [e.sample_id for e in manifest.entries if e.group == 2]
        assert [e.sample_id for e in filtered.entries] == original_order

    def test_invalid_group_rejected(self):
        with pytest.raises(ValueError):
            filter_group(_table_shaped_manifest(), 3)


_GAMMA = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1


def _scalar_splitmix64(seed, count):
    """Reference stream: the published splitmix64.c recurrence, one draw at a time."""
    state = seed
    out = []
    for _ in range(count):
        state = (state + _GAMMA) & _MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        out.append(z ^ (z >> 31))
    return out


class TestSplitMix64:
    def test_deterministic_stream(self):
        a = SplitMix64(1234)
        b = SplitMix64(1234)
        assert a.next_block(5).tolist() == b.next_block(5).tolist()

    def test_byte_range(self):
        values = (SplitMix64(9).next_block(1000) >> np.uint64(56)).tolist()
        assert min(values) >= 0 and max(values) <= 255
        assert len(set(values)) > 100  # spread over the byte range

    def test_bounded_draws(self):
        bounds = np.arange(200, 0, -1, dtype=np.uint64)
        draws = SplitMix64(9).next_block(200) % bounds
        assert np.all(draws < bounds)

    def test_reference_vector(self):
        expected = [
            6457827717110365317,
            3203168211198807973,
            9817491932198370423,
            4593380528125082431,
            16408922859458223821,
        ]
        assert _scalar_splitmix64(1234567, 5) == expected
        assert SplitMix64(1234567).next_block(5).tolist() == expected

    @pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
    def test_block_equals_scalar_stream(self, seed):
        block = SplitMix64(seed).next_block(1000)
        assert block.dtype == np.uint64
        assert block.tolist() == _scalar_splitmix64(seed, 1000)

    @pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
    def test_split_blocks_continue_the_stream(self, seed):
        rng = SplitMix64(seed)
        drawn = []
        for count in (1, 0, 7, 256, 3):
            drawn.extend(rng.next_block(count).tolist())
        assert drawn == _scalar_splitmix64(seed, len(drawn))

    @pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
    def test_state_advances_by_count_gammas(self, seed):
        rng = SplitMix64(seed)
        for count in (0, 1, 5000):
            before = rng.state
            rng.next_block(count)
            assert rng.state == (before + count * _GAMMA) & _MASK


def _digests(images, dataset):
    pixels = hashlib.sha256()
    for img in images:
        pixels.update(img.pixels.tobytes())
    return (
        pixels.hexdigest(),
        hashlib.sha256(serialize_manifest(dataset).encode()).hexdigest(),
    )


class TestGenerateSynthetic:
    def test_same_spec_same_bytes(self):
        images1, dataset1 = generate_synthetic(FROZEN_SPEC)
        images2, dataset2 = generate_synthetic(FROZEN_SPEC)
        # images compare by identity, so compare the entries without them
        assert [replace(e, image=None) for e in dataset1.entries] == [
            replace(e, image=None) for e in dataset2.entries
        ]
        for a, b in zip(images1, images2):
            assert np.array_equal(a.pixels, b.pixels)

    def test_entries_carry_image_and_path(self):
        images, dataset = generate_synthetic(FROZEN_SPEC)
        assert [e.image for e in dataset.entries] == images
        assert all(e.path == f"{e.sample_id}.pgm" for e in dataset.entries)

    @pytest.mark.parametrize(
        "spec, pixels, manifest",
        [
            (
                FROZEN_SPEC,
                "47fc33d2dbd5037c2f4d28813b6475b0b6b41e7d2abb4df06ff80d9e8952d66c",
                "e1ff43f65221367147e4fce8c75ebd687db2f24188d79d897a4fba2b0a64a475",
            ),
            (
                SyntheticSpec(seed=1, per_class=2, width=300, height=225, smoothing_radius=0),
                "7086730e7b85a326f22d450170dcc723a60ee27d22e99204c8a81818975cc954",
                "5d30bb3496a4e6d63de1f50cbd384592934c16774578e92a67191db228f1a006",
            ),
            (
                SyntheticSpec(seed=1, per_class=2, width=300, height=225, smoothing_radius=2),
                "c9381e6a7f5c013e176a549eff3e8f9b45c6e7a0d617aec8c89f045f3862975e",
                "5d30bb3496a4e6d63de1f50cbd384592934c16774578e92a67191db228f1a006",
            ),
        ],
        ids=["frozen", "300x225-r0", "300x225-r2"],
    )
    def test_pinned_bytes(self, spec, pixels, manifest):
        """SHA-256 of every image's pixels and of the manifest text, recorded
        from the one-draw-at-a-time generator."""
        assert _digests(*generate_synthetic(spec)) == (pixels, manifest)

    def test_output_count_and_balance(self, synthetic_benchmark):
        dataset = synthetic_benchmark
        assert len(dataset) == 2 * FROZEN_SPEC.per_class
        labels = [e.label for e in dataset.entries]
        assert labels.count(-1) == labels.count(1) == FROZEN_SPEC.per_class

    def test_pairs_share_gray_histogram_exactly(self, synthetic_benchmark):
        by_id = {e.sample_id: e.image for e in synthetic_benchmark.entries}
        for k in range(FROZEN_SPEC.per_class):
            normal = by_id[f"normal-{k:03d}"].pixels
            twin = by_id[f"adulterated-{k:03d}"].pixels
            assert np.array_equal(
                np.bincount(normal.ravel(), minlength=256),
                np.bincount(twin.ravel(), minlength=256),
            )

    def test_pairs_differ_in_lbp_histogram(self, synthetic_benchmark):
        by_id = {e.sample_id: e.image for e in synthetic_benchmark.entries}
        for k in range(FROZEN_SPEC.per_class):
            normal = extract_feature(by_id[f"normal-{k:03d}"], FeatureKind.LBP)
            twin = extract_feature(by_id[f"adulterated-{k:03d}"], FeatureKind.LBP)
            assert np.abs(normal - twin).sum() > 0

    def test_different_seeds_differ(self):
        a, _ = generate_synthetic(SyntheticSpec(seed=1, per_class=2, width=8, height=8))
        b, _ = generate_synthetic(SyntheticSpec(seed=2, per_class=2, width=8, height=8))
        assert any(not np.array_equal(x.pixels, y.pixels) for x, y in zip(a, b))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SyntheticSpec(seed=1, per_class=1, width=8, height=8)
        with pytest.raises(ValueError):
            SyntheticSpec(seed=1, per_class=2, width=4, height=8)
        with pytest.raises(ValueError):
            SyntheticSpec(seed=-1, per_class=2, width=8, height=8)
        with pytest.raises(ValueError):
            SyntheticSpec(seed=1, per_class=2, width=8, height=8, smoothing_radius=-1)

    def test_smoothing_radius_beyond_image_blurs_to_the_mean(self):
        spec = SyntheticSpec(seed=3, per_class=2, width=8, height=8, smoothing_radius=8)
        _, wide = generate_synthetic(spec)
        _, huge = generate_synthetic(replace(spec, smoothing_radius=2**64))
        for a, b in zip(wide.entries, huge.entries):
            assert np.array_equal(a.image.pixels, b.image.pixels)
        assert len(np.unique(wide.entries[0].image.pixels)) == 1

    def test_smoothing_radius_zero_keeps_raw_noise(self):
        images, _ = generate_synthetic(
            SyntheticSpec(seed=5, per_class=2, width=16, height=16, smoothing_radius=0)
        )
        # raw uniform noise spans most of the byte range
        assert images[0].pixels.max() - images[0].pixels.min() > 100


class TestManifestTypes:
    def test_entry_validation(self):
        img = GrayImage(np.zeros((8, 8), dtype=np.uint8))
        for image in (None, img):
            with pytest.raises(ValueError, match="sample id"):
                DatasetEntry("", image, 1, 1, "x.pgm")
            with pytest.raises(ValueError, match="label"):
                DatasetEntry("a", image, 0, 1, "x.pgm")
            with pytest.raises(ValueError, match="group"):
                DatasetEntry("a", image, 1, 3, "x.pgm")
        assert DatasetEntry("a", img, 1, 2).path == ""

    def test_manifest_rejects_duplicate_ids(self):
        e = DatasetEntry("a", None, 1, 1, "x.pgm")
        with pytest.raises(ValueError, match="duplicate"):
            LabeledDataset((e, e))
