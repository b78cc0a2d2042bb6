"""Texture features: 8-neighbor local binary patterns and gray-level histograms.

The LBP code of an interior pixel packs the eight neighbor comparisons into
one byte, most significant bit first: NW=7, then clockwise N=6, NE=5, E=4,
SE=3, S=2, SW=1, W=0. Border pixels produce no code, so the code matrix is
two pixels smaller than the image in each direction. A histogram is the
256 bin counts of the codes (LBP) or of the pixels (GRAY), divided by their
total so it sums to one.

A feature is a plain float64 vector: 256 values for LBP or GRAY, 512 for
CONCAT (the LBP block, then the GRAY block). The kind is an argument of the
functions that need it, not a tag on the vector.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .imagecore import GrayImage


class Comparator(Enum):
    """Tie handling for the neighbor-vs-center test.

    STRICT_GREATER sets a bit only when the neighbor exceeds the center;
    GREATER_EQUAL also sets it on ties. On images with no center-neighbor
    ties the two agree.
    """

    STRICT_GREATER = "gt"
    GREATER_EQUAL = "ge"


class FeatureKind(str, Enum):
    LBP = "lbp"
    GRAY = "gray"
    CONCAT = "concat"


# (row offset, column offset) of the eight neighbors, most significant bit
# first: NW=7, then clockwise down to W=0
_NEIGHBORS = ((-1, -1), (-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1))


def lbp_transform(img: GrayImage, cmp: Comparator = Comparator.STRICT_GREATER) -> np.ndarray:
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
    compare = np.greater if Comparator(cmp) is Comparator.STRICT_GREATER else np.greater_equal
    # doubling shifts the bits set so far up by one before the next lands in bit 0
    for dy, dx in _NEIGHBORS:
        at = start + dy * w + dx
        compare(flat[at : at + n], center, out=hits)
        run += run
        run |= hits.view(np.uint8)
    return codes.reshape(h - 2, w)[:, : w - 2].copy()


def _histogram(values: np.ndarray) -> np.ndarray:
    """256 bin counts of non-empty uint8 `values`, divided by their total."""
    counts = np.bincount(values.ravel(), minlength=256)
    return counts / counts.sum()


def extract_feature(
    img: GrayImage,
    kind: FeatureKind,
    cmp: Comparator = Comparator.STRICT_GREATER,
) -> np.ndarray:
    """Compute the L1-normalized feature of the requested kind for one image.

    CONCAT juxtaposes the LBP block (indices 0-255) and the GRAY block
    (256-511); each keeps its own normalization, so its total mass is two.
    """
    kind = FeatureKind(kind)
    if kind is FeatureKind.GRAY:
        return _histogram(img.pixels)
    lbp = _histogram(lbp_transform(img, cmp))
    if kind is FeatureKind.LBP:
        return lbp
    return np.concatenate([lbp, _histogram(img.pixels)])


def format_feature(kind: FeatureKind, values: np.ndarray) -> str:
    """One-line text form `kind,v0,v1,...` with 17 significant digits."""
    # Python floats format as numpy's float64 scalars do, in less time
    return ",".join([FeatureKind(kind).value] + [f"{v:.17g}" for v in np.asarray(values).tolist()])
