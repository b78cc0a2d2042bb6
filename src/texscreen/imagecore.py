"""Raster primitives: portable graymap/pixmap IO and resizing.

Only uncompressed netpbm formats with maxval 255 are handled (P2/P5 graymaps,
P3/P6 pixmaps), which keeps image IO bit-exact and dependency-free. Pixmaps
become gray as they are decoded, so `GrayImage` is the only raster. Every
place a real number becomes a pixel value uses round-half-up.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_WHITESPACE = b" \t\n\r\x0b\x0c"
# float64 values per row block of the resize passes: 64 KiB
_ROW_BLOCK = 8192


class PnmDecodeError(ValueError):
    """Malformed netpbm data; `offset` is the byte position of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


@dataclass(eq=False)
class GrayImage:
    """Single-channel 8-bit raster, row-major."""

    pixels: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.pixels)
        if a.ndim != 2:
            raise ValueError("gray image pixels must form a 2-D array")
        if a.shape[0] < 1 or a.shape[1] < 1:
            raise ValueError("image must be at least 1x1")
        if not np.issubdtype(a.dtype, np.integer):
            raise ValueError("pixel values must be integers")
        if a.min() < 0 or a.max() > 255:
            raise ValueError("pixel values must lie in [0, 255]")
        self.pixels = a.astype(np.uint8)


@dataclass(frozen=True)
class Resolution:
    """Target size for resizing, in pixels."""

    width: int
    height: int

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError("resolution dimensions must be positive")

    def __str__(self) -> str:
        return f"{self.width}x{self.height}"


def _skip_filler(data: bytes, pos: int) -> int:
    # whitespace and '#' comments may separate header tokens
    while pos < len(data):
        b = data[pos]
        if b in _WHITESPACE:
            pos += 1
        elif b == 0x23:  # '#'
            while pos < len(data) and data[pos] not in b"\r\n":
                pos += 1
        else:
            break
    return pos


def _read_token(data: bytes, pos: int, what: str) -> tuple[bytes, int, int]:
    pos = _skip_filler(data, pos)
    if pos >= len(data):
        raise PnmDecodeError(f"unexpected end of data while reading {what}", pos)
    start = pos
    while pos < len(data) and data[pos] not in _WHITESPACE and data[pos] != 0x23:
        pos += 1
    return data[start:pos], start, pos


def _read_int(data: bytes, pos: int, what: str) -> tuple[int, int, int]:
    token, start, end = _read_token(data, pos, what)
    if not token.isdigit():
        raise PnmDecodeError(f"malformed {what} token {token!r}", start)
    return int(token), start, end


def decode_image(data: bytes) -> GrayImage:
    """Decode a P2/P5 graymap or P3/P6 pixmap with maxval 255 to gray.

    Pixmaps are converted with BT.601 luma weights (see `_luma`). Raises
    PnmDecodeError for bad magic, malformed or missing header tokens,
    maxval other than 255, zero dimensions, and truncated payloads; the
    error carries the byte offset of the defect.
    """
    magic, magic_at, pos = _read_token(data, 0, "magic")
    if magic not in (b"P2", b"P3", b"P5", b"P6"):
        raise PnmDecodeError(f"unsupported magic {magic!r}", magic_at)
    ascii_payload = magic in (b"P2", b"P3")
    channels = 3 if magic in (b"P3", b"P6") else 1

    width, width_at, pos = _read_int(data, pos, "width")
    if width == 0:
        raise PnmDecodeError("zero width", width_at)
    height, height_at, pos = _read_int(data, pos, "height")
    if height == 0:
        raise PnmDecodeError("zero height", height_at)
    maxval, maxval_at, pos = _read_int(data, pos, "maxval")
    if maxval != 255:
        raise PnmDecodeError(f"unsupported maxval {maxval}", maxval_at)

    count = width * height * channels
    if ascii_payload:
        # every value takes at least one byte, so the remaining data bounds
        # the allocation
        if len(data) - pos < count:
            raise PnmDecodeError(
                f"truncated payload: expected {count} values, found {len(data) - pos} bytes",
                len(data),
            )
        values = np.empty(count, dtype=np.uint8)
        for k in range(count):
            v, v_at, pos = _read_int(data, pos, "pixel value")
            if v > 255:
                raise PnmDecodeError(f"pixel value {v} exceeds maxval 255", v_at)
            values[k] = v
    else:
        # exactly one whitespace byte separates the header from the payload
        if pos >= len(data) or data[pos] not in _WHITESPACE:
            raise PnmDecodeError("expected whitespace before binary payload", pos)
        pos += 1
        if len(data) - pos < count:
            raise PnmDecodeError(
                f"truncated payload: expected {count} bytes, found {len(data) - pos}",
                len(data),
            )
        values = np.frombuffer(data, dtype=np.uint8, count=count, offset=pos)

    if channels == 1:
        return GrayImage(values.reshape(height, width))
    return GrayImage(_luma(values.reshape(height, width, 3)))


def encode_pgm(img: GrayImage) -> bytes:
    """Serialize a GrayImage as a binary graymap (P5, maxval 255).

    decode_image(encode_pgm(img)) reproduces img exactly.
    """
    height, width = img.pixels.shape
    header = f"P5 {width} {height} 255\n".encode("ascii")
    return header + img.pixels.tobytes()


def _luma(p: np.ndarray) -> np.ndarray:
    """Gray levels of (H, W, 3) uint8 (r, g, b) pixels, with BT.601 luma
    weights 0.299/0.587/0.114.

    Computed in exact integer milli-weights with decimal round-half-up,
    so (v, v, v) maps to v for every v. The weights sum to one, hence the
    result always lands in [0, 255]. The sum peaks at 255,500, so it is
    accumulated one channel at a time in uint32.
    """
    luma = p[..., 0] * np.uint32(299) + p[..., 1] * np.uint32(587)
    luma += p[..., 2] * np.uint32(114) + 500
    luma //= 1000
    return luma


def resize_bilinear(img: GrayImage, target: Resolution) -> GrayImage:
    """Resize with bilinear interpolation under pixel-center alignment.

    Destination pixel (x, y) samples the source at
    ((x + 0.5) * W_src / W_dst - 0.5, (y + 0.5) * H_src / H_dst - 0.5),
    clamped to the source extent; interpolated values are rounded half-up.
    Each value is a sum of products of pixels in [0, 255] and weights in
    [0, 1] that sum to 1, so it lies in [0, 255 + a few ulps]; plus 0.5 it
    is in [0.5, 256), where the `uint8` store's truncation is the floor and
    no clamp is needed. Resizing to the source resolution returns `img`,
    the identity. Both passes run in blocks of rows small enough that their
    temporaries come from the heap rather than from fresh, page-faulting
    memory maps.
    """
    src = img.pixels
    h_src, w_src = src.shape
    if (target.height, target.width) == (h_src, w_src):
        return img  # sx = x and fx = 0: every pixel samples itself

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

    # separable: interpolate along x once per source row, then blend rows,
    # rounding each block in place into the uint8 output
    step = max(1, _ROW_BLOCK // target.width)
    rows = np.empty((h_src, target.width))
    for r in range(0, h_src, step):
        b = slice(r, r + step)
        np.multiply(src[b, x0], 1.0 - fx, out=rows[b])
        rows[b] += src[b, x1] * fx
    out = np.empty((target.height, target.width), dtype=np.uint8)
    for r in range(0, target.height, step):
        b = slice(r, r + step)
        values = rows[y0[b]] * (1.0 - fy[b, None])
        values += rows[y1[b]] * fy[b, None]
        values += 0.5
        out[b] = values  # truncates, which is floor on [0.5, 256)
    return GrayImage(out)
