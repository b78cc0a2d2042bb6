"""Texture features: 8-neighbor local binary patterns and gray-level histograms.

The LBP code of an interior pixel packs the eight neighbor comparisons into
one byte, most significant bit first: NW=7, then clockwise N=6, NE=5, E=4,
SE=3, S=2, SW=1, W=0. A bit is set when the neighbor is strictly greater
than the center; ties set none. Border pixels produce no code, so the code
matrix is two pixels smaller than the image in each direction. A histogram
is the 256 bin counts of the codes (LBP) or of the pixels (GRAY), divided
by their total so it sums to one: (h-2)(w-2) codes or h*w pixels, the same
for every image of a size, so a table is divided once by that count.

A feature is a plain float64 vector: 256 values for LBP or GRAY, 512 for
CONCAT (the LBP block, then the GRAY block). The kind is an argument of the
functions that need it, not a tag on the vector. `extract_feature` turns
same-size images into one feature row each with one LBP transform of the
stacked images, since a small image's transform costs mostly fixed overhead.
"""

from __future__ import annotations

from enum import Enum
from typing import Sequence

import numpy as np

from .imagecore import GrayImage


class FeatureKind(str, Enum):
    LBP = "lbp"
    GRAY = "gray"
    CONCAT = "concat"


# (row offset, column offset) of the eight neighbors, most significant bit
# first: NW=7, then clockwise down to W=0
_NEIGHBORS = ((-1, -1), (-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1))


def lbp_transform(img: GrayImage) -> np.ndarray:
    """Compute the LBP code of every interior pixel.

    Requires at least a 3x3 image; the result is a C-contiguous (H-2, W-2)
    uint8 array. Codes depend only on the sign of neighbor-minus-center
    differences, so adding a constant to every pixel leaves the result
    unchanged. Codes are accumulated most significant bit first over the
    flat pixel run from (1, 1) to (H-2, W-2), where neighbor (dy, dx) is
    dy*W + dx on; codes whose neighbors wrap across rows are cut away.
    """
    p = img.pixels
    h, w = p.shape
    if h < 3 or w < 3:
        raise ValueError("LBP needs an image of at least 3x3 pixels")
    flat = p.ravel()
    start, n = w + 1, (h - 2) * w - 2
    center = flat[start : start + n]
    codes = np.zeros((h - 2) * w, dtype=np.uint8)
    run = codes[:n]
    hits = np.empty(n, dtype=bool)
    # doubling shifts the bits set so far up by one before the next lands in bit 0
    for dy, dx in _NEIGHBORS:
        at = start + dy * w + dx
        np.greater(flat[at : at + n], center, out=hits)
        run += run
        run |= hits.view(np.uint8)
    return codes.reshape(h - 2, w)[:, : w - 2].copy()


def extract_feature(images: Sequence[GrayImage], kind: FeatureKind) -> np.ndarray:
    """The (n, d) matrix whose row i is the L1-normalized feature of the
    requested kind of `images[i]`; the images must share one size.

    CONCAT juxtaposes the LBP block (columns 0-255) and the GRAY block
    (256-511); each keeps its own normalization, so a row's total mass is
    two. Each image's bin counts are written into its row of a block, and
    the block is divided once by the number of values each row counts:
    (h-2)(w-2) codes or h*w pixels. No images give (0, d).
    """
    kind = FeatureKind(kind)
    if len({img.pixels.shape for img in images}) > 1:
        raise ValueError("images of one batch must share one size")
    table = np.empty((len(images), 512 if kind is FeatureKind.CONCAT else 256))
    if not images:
        return table
    h, w = images[0].pixels.shape
    if kind is not FeatureKind.GRAY:
        # checked here as well: a stack of images under 3 rows tall can pass
        # lbp_transform's check while every one of its code rows straddles a seam
        if h < 3 or w < 3:
            raise ValueError("LBP needs an image of at least 3x3 pixels")
        stack = images[0] if len(images) == 1 else GrayImage(np.vstack([img.pixels for img in images]))
        # one transform of the stack, top to bottom: image i's codes are code
        # rows [i*h, i*h + h - 2), as the two rows after them straddle a seam
        codes = lbp_transform(stack)
        for i, row in enumerate(table[:, :256]):
            row[:] = np.bincount(codes[i * h : i * h + h - 2].ravel(), minlength=256)
        table[:, :256] /= (h - 2) * (w - 2)
    if kind is not FeatureKind.LBP:
        for row, img in zip(table[:, -256:], images):
            row[:] = np.bincount(img.pixels.ravel(), minlength=256)
        table[:, -256:] /= h * w
    return table


def format_feature(kind: FeatureKind, values: np.ndarray) -> str:
    """One-line text form `kind,v0,v1,...` with 17 significant digits."""
    # Python floats format as numpy's float64 scalars do, in less time
    return ",".join([FeatureKind(kind).value] + [f"{v:.17g}" for v in np.asarray(values).tolist()])
