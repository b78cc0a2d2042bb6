import csv
import hashlib
import re
from dataclasses import fields, replace

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
    _box_blur,
    _swap_sources,
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
# any id or path text, empty or holding CR, LF or NUL
_ANY_FIELD = st.text(
    st.one_of(
        st.characters(exclude_categories=("Cs",)),
        st.sampled_from("\r\n\0" + _UNICODE_LINE_BREAKS),
    ),
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
        with pytest.raises(ManifestError) as err:
            load_manifest("id,path,label,group\na,x.pgm,normal,1\n,y.pgm,normal,1\n")
        assert str(err.value) == "sample id must be non-empty (line 3)"
        assert err.value.line == 3

    def test_empty_path_rejected(self):
        with pytest.raises(ManifestError, match="path"):
            load_manifest("id,path,label,group\na,,normal,1\n")

    def test_nul_in_path_names_line(self):
        with pytest.raises(ManifestError, match="NUL") as err:
            load_manifest("id,path,label,group\na,x.pgm,normal,1\nb,y\0.pgm,normal,1\n")
        assert err.value.line == 3

    @pytest.mark.parametrize(
        "text, line",
        [
            ("id,path,label\0,group\n", 1),
            ("id,path,label,group\n\0b,y.pgm,normal,1\n", 2),
            ('id,path,label,group\na,x.pgm,normal,1\n"b\0",y.pgm,normal,1\n', 3),
        ],
        ids=["header", "id", "quoted-id"],
    )
    def test_nul_anywhere_names_line(self, text, line):
        # csv raises on a NUL before Python 3.11, so it is rejected before
        # csv reads the line, with one message on every Python
        with pytest.raises(ManifestError) as err:
            load_manifest(text)
        assert str(err.value) == f"line contains a NUL character (line {line})"
        assert err.value.line == line

    @pytest.mark.parametrize(
        "text, line",
        [
            ("a" * 131073 + "\n", 1),
            ("id,path,label,group\n" + "a" * 131073 + ",x.pgm,normal,1\n", 2),
        ],
        ids=["header", "entry"],
    )
    def test_overlong_field_names_line(self, text, line):
        # csv.field_size_limit() is 131072 characters
        with pytest.raises(ManifestError) as err:
            load_manifest(text)
        assert str(err.value) == f"field larger than field limit (131072) (line {line})"
        assert err.value.line == line

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

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(
                _ANY_FIELD.filter(bool),
                _ANY_FIELD,
                st.sampled_from([1, -1]),
                st.sampled_from([1, 2]),
            ),
            max_size=6,
            unique_by=lambda row: row[0],
        )
    )
    @example([("a", "", 1, 1)])
    @example([("a\nb", "x.pgm", 1, 1)])
    @example([("a", "x\ny.pgm", 1, 1)])
    @example([("a" * 131073, "x.pgm", 1, 1)])
    @example([("a\0b", "x.pgm", 1, 1)])
    def test_serialize_raises_or_roundtrips(self, rows):
        # empty paths, NULs, CRs and LFs are drawn too: text cannot hold them;
        # nor can load_manifest read back a NUL or a field beyond csv's size
        # limit
        manifest = LabeledDataset(
            tuple(DatasetEntry(i, None, label, group, path) for i, path, label, group in rows)
        )
        unwritable = [
            i
            for i, path, _, _ in rows
            if not path
            or set("\0\r\n") & set(i + path)
            or max(len(i), len(path)) > csv.field_size_limit()
        ]
        if unwritable:
            first = re.escape(repr(unwritable[0]))
            with pytest.raises(ValueError, match=f"^entry {first} cannot be written") as err:
                serialize_manifest(manifest)
            assert "\n" not in str(err.value)
            return
        text = serialize_manifest(manifest)
        assert load_manifest(text) == manifest
        assert load_manifest(text.encode("utf-8")) == manifest

    def test_non_utf8_bytes_name_line(self):
        lines = [b"id,path,label,group", b"a,x.pgm,normal,1", b"b,\xff.pgm,normal,1", b""]
        for newline in (b"\n", b"\r", b"\r\n"):  # the breaks that end a line
            with pytest.raises(ManifestError, match="UTF-8") as err:
                load_manifest(newline.join(lines))
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


def _fisher_yates_sources(j):
    """Reference: run the swaps cells[i] <-> cells[j[i]] for i = n-1 .. 1 one
    at a time on the cell indices."""
    cells = list(range(len(j)))
    for i in range(len(j) - 1, 0, -1):
        cells[i], cells[j[i]] = cells[j[i]], cells[i]
    return cells


@st.composite
def _swap_targets(draw):
    n = draw(st.integers(1, 300))
    return [0] + [draw(st.integers(0, i)) for i in range(1, n)]


class TestSwapSources:
    @settings(max_examples=200, deadline=None)
    @given(_swap_targets())
    def test_equals_one_swap_at_a_time(self, j):
        sources = _swap_sources(np.array(j, dtype=np.int32))
        assert sources.dtype == np.int32
        assert sources.tolist() == _fisher_yates_sources(j)

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 300, 1000])
    @pytest.mark.parametrize(
        "rule",
        [lambda i: i, lambda i: 0, lambda i: max(i - 1, 0)],
        ids=["itself", "zero", "previous"],
    )
    def test_extreme_targets(self, n, rule):
        j = [rule(i) for i in range(n)]
        assert _swap_sources(np.array(j, dtype=np.int32)).tolist() == _fisher_yates_sources(j)


def _integral_box_blur(pixels, radius):
    """Reference: the (2r+1)^2 window mean from a 2-D integral image."""
    if radius == 0:
        return pixels.copy()
    h, w = pixels.shape
    integral = np.zeros((h + 1, w + 1), dtype=np.int64)
    integral[1:, 1:] = pixels.astype(np.int64).cumsum(axis=0).cumsum(axis=1)
    y0 = np.maximum(np.arange(h) - radius, 0)
    y1 = np.minimum(np.arange(h) + radius + 1, h)
    x0 = np.maximum(np.arange(w) - radius, 0)
    x1 = np.minimum(np.arange(w) + radius + 1, w)
    sums = (
        integral[np.ix_(y1, x1)]
        - integral[np.ix_(y0, x1)]
        - integral[np.ix_(y1, x0)]
        + integral[np.ix_(y0, x0)]
    )
    counts = (y1 - y0)[:, None] * (x1 - x0)[None, :]
    return (2 * sums + counts) // (2 * counts)


class TestBoxBlur:
    @pytest.mark.parametrize("shape", [(8, 8), (8, 1100), (1100, 8), (225, 300)])
    @pytest.mark.parametrize("radius", [0, 1, 2, 7])
    def test_equals_integral_image_blur(self, shape, radius):
        pixels = np.random.default_rng(sum(shape)).integers(0, 256, shape, dtype=np.uint8)
        blurred = _box_blur(pixels, radius)
        assert blurred.dtype == np.uint8
        assert np.array_equal(blurred, _integral_box_blur(pixels, radius))


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
                SyntheticSpec(seed=1, per_class=2, width=300, height=225),
                "c9381e6a7f5c013e176a549eff3e8f9b45c6e7a0d617aec8c89f045f3862975e",
                "5d30bb3496a4e6d63de1f50cbd384592934c16774578e92a67191db228f1a006",
            ),
        ],
        ids=["frozen", "300x225-r2"],
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
            normal = extract_feature([by_id[f"normal-{k:03d}"]], FeatureKind.LBP)[0]
            twin = extract_feature([by_id[f"adulterated-{k:03d}"]], FeatureKind.LBP)[0]
            assert np.abs(normal - twin).sum() > 0

    def test_different_seeds_differ(self):
        a, _ = generate_synthetic(SyntheticSpec(seed=1, per_class=2, width=8, height=8))
        b, _ = generate_synthetic(SyntheticSpec(seed=2, per_class=2, width=8, height=8))
        assert any(not np.array_equal(x.pixels, y.pixels) for x, y in zip(a, b))

    def test_draws_n_noise_and_n_minus_1_shuffle_outputs_per_pair(self, monkeypatch):
        rngs = []

        class RecordingSplitMix64(SplitMix64):
            def __init__(self, seed):
                super().__init__(seed)
                rngs.append(self)

        monkeypatch.setattr("texscreen.dataset.SplitMix64", RecordingSplitMix64)
        spec = SyntheticSpec(seed=2**64 - 5, per_class=3, width=11, height=9)
        generate_synthetic(spec)
        n = spec.width * spec.height
        [rng] = rngs
        assert rng.state == (spec.seed + spec.per_class * (2 * n - 1) * _GAMMA) & _MASK

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SyntheticSpec(seed=1, per_class=1, width=8, height=8)
        with pytest.raises(ValueError):
            SyntheticSpec(seed=1, per_class=2, width=4, height=8)
        with pytest.raises(ValueError):
            SyntheticSpec(seed=-1, per_class=2, width=8, height=8)
        # every pixel is held at once: 2 * 4 * 2^15 * 2^13 = 2^31 is too many
        SyntheticSpec(seed=1, per_class=3, width=2**15, height=2**13)
        with pytest.raises(ValueError, match=r"below 2\^31"):
            SyntheticSpec(seed=1, per_class=4, width=2**15, height=2**13)
        with pytest.raises(ValueError, match=r"below 2\^31"):
            SyntheticSpec(seed=1, per_class=10**20, width=8, height=8)
        # a non-integer field fails here, not later inside generate_synthetic
        base = dict(seed=1, per_class=2, width=8, height=8)
        for name, value in (
            ("per_class", 2.5),
            ("width", 8.5),
            ("seed", 1.5),
            ("seed", True),
            ("height", np.float64(8.0)),
            ("width", "8"),
        ):
            with pytest.raises(ValueError, match=rf"^{name} must be an integer, not "):
                SyntheticSpec(**{**base, name: value})
        spec = SyntheticSpec(seed=np.uint64(3), per_class=np.int32(2), width=np.int64(8), height=8)
        assert [type(v) for v in vars(spec).values()] == [int] * 4
        assert spec == SyntheticSpec(seed=3, per_class=2, width=8, height=8)
        # the blur radius is a constant, not a setting
        assert [f.name for f in fields(SyntheticSpec)] == ["seed", "per_class", "width", "height"]


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
            # bools and floats equal to a valid value would be written as
            # `True` or `1.0`, which load_manifest rejects
            for field, label, group in (
                ("group", 1, 1.0),
                ("group", 1, True),
                ("label", True, 1),
                ("label", 1.0, 1),
                ("label", np.float64(-1.0), 2),
            ):
                with pytest.raises(ValueError, match=f"^{field} must be "):
                    DatasetEntry("a", image, label, group, "a.pgm")
            for sample_id in (1, None, b"a", ""):
                with pytest.raises(ValueError, match="^sample id must be a non-empty str"):
                    DatasetEntry(sample_id, image, 1, 1, "a.pgm")
        entry = DatasetEntry("a", img, np.int64(-1), np.int32(2))
        assert (entry.label, entry.group) == (-1, 2)
        assert type(entry.label) is int and type(entry.group) is int
        assert DatasetEntry("a", img, 1, 2).path == ""

    def test_manifest_rejects_duplicate_ids(self):
        e = DatasetEntry("a", None, 1, 1, "x.pgm")
        with pytest.raises(ValueError, match="duplicate"):
            LabeledDataset((e, e))
