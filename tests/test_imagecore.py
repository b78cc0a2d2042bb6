import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from texscreen.imagecore import (
    GrayImage,
    PnmDecodeError,
    Resolution,
    decode_image,
    encode_pgm,
    resize_bilinear,
)


def _p6(rgb: np.ndarray) -> bytes:
    """A binary pixmap of (H, W, 3) pixels."""
    h, w, _ = rgb.shape
    return f"P6 {w} {h} 255\n".encode() + rgb.astype(np.uint8).tobytes()


def _p3(rgb: np.ndarray) -> bytes:
    """An ASCII pixmap of (H, W, 3) pixels."""
    h, w, _ = rgb.shape
    return f"P3 {w} {h} 255\n".encode() + " ".join(map(str, rgb.ravel().tolist())).encode()


class TestDecode:
    def test_binary_graymap(self):
        img = decode_image(b"P5 2 2 255\n" + bytes([0, 128, 255, 64]))
        assert isinstance(img, GrayImage)
        assert img.pixels.shape == (2, 2)
        assert img.pixels.ravel().tolist() == [0, 128, 255, 64]

    def test_binary_pixmap(self):
        img = decode_image(b"P6 1 1 255\n" + bytes([10, 20, 30]))
        assert isinstance(img, GrayImage)
        # (299 * 10 + 587 * 20 + 114 * 30 + 500) // 1000
        assert img.pixels.tolist() == [[18]]

    def test_ascii_graymap(self):
        img = decode_image(b"P2 3 1 255\n0 127 255\n")
        assert isinstance(img, GrayImage)
        assert img.pixels.ravel().tolist() == [0, 127, 255]

    def test_ascii_pixmap(self):
        img = decode_image(b"P3 1 2 255\n1 2 3  4 5 6\n")
        assert isinstance(img, GrayImage)
        assert img.pixels.tolist() == [[2], [5]]

    def test_header_comments_are_skipped(self):
        img = decode_image(b"P5 # a comment\n2 1 # another\n255\n\x07\x08")
        assert img.pixels.ravel().tolist() == [7, 8]

    def test_multiline_header_whitespace(self):
        img = decode_image(b"P5\n2\t1\r\n255\n\x01\x02")
        assert img.pixels.ravel().tolist() == [1, 2]

    def test_bad_magic_offset(self):
        with pytest.raises(PnmDecodeError) as err:
            decode_image(b"P7 1 1 255\n\x00")
        assert err.value.offset == 0

    def test_zero_width_offset(self):
        with pytest.raises(PnmDecodeError, match="zero width") as err:
            decode_image(b"P5 0 2 255\n")
        assert err.value.offset == 3

    def test_zero_height_offset(self):
        with pytest.raises(PnmDecodeError, match="zero height") as err:
            decode_image(b"P5 2 0 255\n")
        assert err.value.offset == 5

    def test_bad_maxval_offset(self):
        with pytest.raises(PnmDecodeError, match="maxval") as err:
            decode_image(b"P5 2 2 254\n" + bytes(4))
        assert err.value.offset == 7

    def test_malformed_width_token(self):
        with pytest.raises(PnmDecodeError, match="width") as err:
            decode_image(b"P5 ab 2 255\n")
        assert err.value.offset == 3

    def test_truncated_binary_payload(self):
        data = b"P5 2 2 255\n" + bytes(3)
        with pytest.raises(PnmDecodeError, match="truncated") as err:
            decode_image(data)
        assert err.value.offset == len(data)

    def test_missing_header_token(self):
        with pytest.raises(PnmDecodeError, match="maxval"):
            decode_image(b"P5 2 2")

    def test_ascii_value_above_maxval(self):
        with pytest.raises(PnmDecodeError, match="exceeds") as err:
            decode_image(b"P2 1 1 255\n256")
        assert err.value.offset == 11

    def test_ascii_truncated_values(self):
        data = b"P2 2 1 255\n7"
        with pytest.raises(PnmDecodeError, match="pixel value") as err:
            decode_image(data)
        assert err.value.offset == len(data)

    @pytest.mark.parametrize(
        "data",
        [b"P2 1000000 1000000 255\n1 2 3", b"P2 4000000000 4000000000 255\n1", b"P3 9 9 255\n"],
    )
    def test_ascii_dimensions_bounded_by_data_length(self, data):
        with pytest.raises(PnmDecodeError, match="truncated") as err:
            decode_image(data)
        assert err.value.offset == len(data)

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            st.binary(max_size=64),
            st.builds(
                lambda magic, dims, tail: magic + b" ".join(b"%d" % d for d in dims) + tail,
                st.sampled_from([b"P2 ", b"P3 ", b"P5 ", b"P6 ", b"P2\n#c\n"]),
                st.lists(st.integers(0, 2**64), min_size=0, max_size=3)
                .map(lambda dims: dims + [255]),
                st.binary(max_size=32),
            ),
        )
    )
    def test_arbitrary_bytes_raise_only_decode_errors(self, data):
        try:
            decode_image(data)
        except PnmDecodeError:
            pass


class TestEncode:
    def test_single_pixel(self):
        assert encode_pgm(GrayImage([[7]])) == b"P5 1 1 255\n\x07"

    def test_payload_size(self):
        data = encode_pgm(GrayImage(np.zeros((3, 2), dtype=np.uint8)))
        header = b"P5 2 3 255\n"
        assert data.startswith(header)
        assert len(data) - len(header) == 6

    def test_roundtrip_random_images(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            h, w = rng.integers(1, 40, size=2)
            pixels = rng.integers(0, 256, size=(h, w))
            img = GrayImage(pixels)
            again = decode_image(encode_pgm(img))
            assert isinstance(again, GrayImage)
            assert np.array_equal(again.pixels, img.pixels)


class TestGrayscale:
    def test_gray_pixels_are_fixed_points(self):
        v = np.arange(256, dtype=np.int64)
        rgb = np.stack([v, v, v], axis=-1).reshape(16, 16, 3)
        for encode in (_p6, _p3):
            assert np.array_equal(decode_image(encode(rgb)).pixels.ravel(), v)

    @pytest.mark.parametrize(
        "rgb,expected",
        [((255, 0, 0), 76), ((0, 255, 0), 150), ((0, 0, 255), 29), ((255, 255, 255), 255)],
    )
    def test_channel_weights(self, rgb, expected):
        assert decode_image(_p6(np.array([[rgb]]))).pixels[0, 0] == expected

    def test_half_up_on_exact_decimal_half(self):
        # 0.114 * 250 = 28.5 exactly in decimal arithmetic
        assert decode_image(_p6(np.array([[(0, 0, 250)]]))).pixels[0, 0] == 29

    def test_shape_and_range(self):
        rng = np.random.default_rng(5)
        pixels = rng.integers(0, 256, size=(9, 13, 3))
        gray = decode_image(_p6(pixels))
        assert gray.pixels.shape == (9, 13)
        assert gray.pixels.min() >= 0 and gray.pixels.max() <= 255


def _resize_four_gathers(img, target):
    """Reference bilinear resize: four 2-D gathers, blended along x then y."""
    src = img.pixels.astype(np.float64)
    h_src, w_src = src.shape
    sx = ((np.arange(target.width) + 0.5) * w_src) / target.width - 0.5
    sy = ((np.arange(target.height) + 0.5) * h_src) / target.height - 0.5
    np.clip(sx, 0.0, w_src - 1.0, out=sx)
    np.clip(sy, 0.0, h_src - 1.0, out=sy)
    x0 = np.floor(sx).astype(np.intp)
    y0 = np.floor(sy).astype(np.intp)
    fx = sx - x0
    fy = sy - y0
    x1 = np.minimum(x0 + 1, w_src - 1)
    y1 = np.minimum(y0 + 1, h_src - 1)
    top = src[np.ix_(y0, x0)] * (1.0 - fx) + src[np.ix_(y0, x1)] * fx
    bottom = src[np.ix_(y1, x0)] * (1.0 - fx) + src[np.ix_(y1, x1)] * fx
    values = top * (1.0 - fy[:, None]) + bottom * fy[:, None]
    out = np.floor(values + 0.5)
    np.clip(out, 0.0, 255.0, out=out)
    return out.astype(np.uint8)


class TestResize:
    def test_matches_four_gather_reference_exactly(self):
        rng = np.random.default_rng(23)
        shapes = [(1, 1), (1, 7), (9, 1)] + [tuple(rng.integers(1, 60, size=2)) for _ in range(150)]
        for h, w in shapes:
            img = GrayImage(rng.integers(0, 256, size=(int(h), int(w))))
            for th, tw in (
                (1, 1),
                (1, int(rng.integers(1, 90))),
                (int(rng.integers(1, 90)), 1),
                tuple(int(v) for v in rng.integers(1, 90, size=2)),
                (int(h) * 3 + 1, int(w) * 2 + 5),  # up-scaling
                (max(int(h) // 3, 1), max(int(w) // 2, 1)),  # down-scaling
            ):
                target = Resolution(tw, th)
                assert np.array_equal(
                    resize_bilinear(img, target).pixels, _resize_four_gathers(img, target)
                ), (h, w, target)

    @pytest.mark.parametrize("width", [300, 1000, 9000])
    def test_row_blocks_match_reference_exactly(self, width):
        # both resize passes run in 64 KiB blocks of 27, 8 and 1 rows at these
        # widths; source and target heights span several blocks and, for 27
        # and 8, end in a partial one
        rng = np.random.default_rng(width)
        for h, w in ((48, 64), (225, 300), (2, 7)):
            img = GrayImage(rng.integers(0, 256, size=(h, w)))
            for height in (1, 3, 29, 61):
                target = Resolution(width, height)
                out = resize_bilinear(img, target).pixels
                assert out.dtype == np.uint8
                assert np.array_equal(out, _resize_four_gathers(img, target)), (h, w, target)

    def test_extremes_need_no_clamp(self):
        # one source pixel more than the target puts the last sample's weight
        # at 1 - 0.5/999; blends of 255s may land a few ulps above 255 and of
        # 0s at 0, and the uint8 store must still give the reference's pixels
        for (h, w), target in (
            ((13, 1000), Resolution(999, 12)),
            ((1000, 13), Resolution(12, 999)),
        ):
            frac = ((np.arange(target.width) + 0.5) * w / target.width - 0.5) % 1.0
            frac_y = ((np.arange(target.height) + 0.5) * h / target.height - 0.5) % 1.0
            assert max(frac.max(), frac_y.max()) > 0.999
            checker = (np.indices((h, w)).sum(axis=0) % 2 * 255).astype(np.uint8)
            for pixels in (np.zeros((h, w), np.uint8), np.full((h, w), 255, np.uint8), checker):
                img = GrayImage(pixels)
                out = resize_bilinear(img, target).pixels
                assert np.array_equal(out, _resize_four_gathers(img, target)), (h, w)
                if pixels.min() == pixels.max():
                    assert (out == pixels[0, 0]).all()

    def test_identity_at_source_resolution(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            h, w = rng.integers(1, 30, size=2)
            img = GrayImage(rng.integers(0, 256, size=(h, w)))
            out = resize_bilinear(img, Resolution(int(w), int(h)))
            assert np.array_equal(out.pixels, img.pixels)
        # the reference resolution and a size off the 4:3 grid; the reference
        # resampling computes the same pixels as the shortcut returns
        for h, w in ((225, 300), (41, 97)):
            img = GrayImage(rng.integers(0, 256, size=(h, w)))
            target = Resolution(w, h)
            assert np.array_equal(resize_bilinear(img, target).pixels, img.pixels)
            assert np.array_equal(_resize_four_gathers(img, target), img.pixels)

    @settings(max_examples=200, deadline=None)
    @given(hnp.arrays(np.uint8, hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=40)))
    def test_identity_at_source_resolution_property(self, pixels):
        img = GrayImage(pixels)
        out = resize_bilinear(img, Resolution(pixels.shape[1], pixels.shape[0]))
        assert np.array_equal(out.pixels, pixels)

    def test_constant_image_stays_constant(self):
        img = GrayImage(np.full((7, 5), 42))
        for target in (Resolution(1, 1), Resolution(3, 9), Resolution(20, 2)):
            out = resize_bilinear(img, target)
            assert (out.pixels == 42).all()
            assert out.pixels.shape == (target.height, target.width)

    def test_two_by_two_average(self):
        img = GrayImage([[0, 100], [200, 60]])
        assert resize_bilinear(img, Resolution(1, 1)).pixels[0, 0] == 90

    def test_output_bounded_by_input_range(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            h, w = rng.integers(2, 25, size=2)
            img = GrayImage(rng.integers(0, 256, size=(h, w)))
            th, tw = rng.integers(1, 40, size=2)
            out = resize_bilinear(img, Resolution(int(tw), int(th)))
            # convex combination plus half-unit rounding slack
            assert out.pixels.min() >= max(int(img.pixels.min()) - 1, 0)
            assert out.pixels.max() <= min(int(img.pixels.max()) + 1, 255)


class TestTypes:
    def test_gray_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            GrayImage([[0, 300]])
        with pytest.raises(ValueError):
            GrayImage([[-1]])

    def test_gray_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            GrayImage(np.zeros((0, 4), dtype=np.uint8))
        with pytest.raises(ValueError):
            GrayImage(np.zeros((2, 2, 2), dtype=np.uint8))

    @pytest.mark.parametrize(
        "pixels, message",
        [
            pytest.param(
                np.zeros((0, 4), dtype=np.uint8), "at least 1x1", id="GrayImage-pixels0-at least 1x1"
            ),
            pytest.param(
                np.full((2, 2), 0.5), "must be integers", id="GrayImage-pixels2-must be integers"
            ),
            pytest.param(
                np.array([[0, 256]]), r"\[0, 255\]", id=r"GrayImage-pixels4-\[0, 255\]"
            ),
        ],
    )
    def test_both_rasters_share_pixel_checks(self, pixels, message):
        with pytest.raises(ValueError, match=message):
            GrayImage(pixels)

    def test_resolution_must_be_positive(self):
        with pytest.raises(ValueError):
            Resolution(0, 5)
        assert str(Resolution(300, 225)) == "300x225"
