"""Texture features: 8-neighbor local binary patterns and gray-level histograms.

The LBP code of an interior pixel packs the eight neighbor comparisons into
one byte, most significant bit first: NW=7, then clockwise N=6, NE=5, E=4,
SE=3, S=2, SW=1, W=0. Border pixels produce no code, so the code matrix is
two pixels smaller than the image in each direction. Histograms are 256-bin
counts; classification consumes their L1-normalized form.
"""

from __future__ import annotations

from dataclasses import dataclass
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


FEATURE_LENGTHS = {FeatureKind.LBP: 256, FeatureKind.GRAY: 256, FeatureKind.CONCAT: 512}

# (row offset, column offset, bit) for the eight neighbors, NW first then clockwise
_NEIGHBOR_BITS = (
    (-1, -1, 7),
    (-1, 0, 6),
    (-1, 1, 5),
    (0, 1, 4),
    (1, 1, 3),
    (1, 0, 2),
    (1, -1, 1),
    (0, -1, 0),
)


@dataclass(eq=False)
class FeatureVector:
    """Non-negative feature values tagged with their kind.

    Normalized vectors (the default classification input) carry unit mass
    per 256-value block: sum 1 for LBP/GRAY, 2 for CONCAT.
    """

    kind: FeatureKind
    values: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.values, dtype=np.float64)
        expected = FEATURE_LENGTHS[FeatureKind(self.kind)]
        if a.ndim != 1 or a.shape[0] != expected:
            raise ValueError(
                f"{FeatureKind(self.kind).value} feature must have {expected} values"
            )
        if not np.all(np.isfinite(a)) or a.min() < 0:
            raise ValueError("feature values must be finite and non-negative")
        self.kind = FeatureKind(self.kind)
        self.values = a


def lbp_transform(img: GrayImage, cmp: Comparator = Comparator.STRICT_GREATER) -> np.ndarray:
    """Compute the LBP code of every interior pixel.

    Requires at least a 3x3 image; the result is an (H-2, W-2) uint8
    array. Codes depend only on the sign of neighbor-minus-center
    differences, so adding a constant to every pixel leaves the result
    unchanged.
    """
    p = img.pixels
    h, w = p.shape
    if h < 3 or w < 3:
        raise ValueError("LBP needs an image of at least 3x3 pixels")
    center = p[1 : h - 1, 1 : w - 1]
    codes = np.zeros((h - 2, w - 2), dtype=np.uint8)
    strict = cmp is Comparator.STRICT_GREATER
    for dy, dx, bit in _NEIGHBOR_BITS:
        neighbor = p[1 + dy : h - 1 + dy, 1 + dx : w - 1 + dx]
        hits = neighbor > center if strict else neighbor >= center
        codes |= hits.astype(np.uint8) << np.uint8(bit)
    return codes


def lbp_histogram(codes: np.ndarray) -> np.ndarray:
    """256 code counts; the total equals the number of code cells."""
    return np.bincount(codes.ravel(), minlength=256)


def gray_histogram(img: GrayImage) -> np.ndarray:
    """256 intensity counts; the total equals the pixel count."""
    return np.bincount(img.pixels.ravel(), minlength=256)


def normalize_l1(hist: np.ndarray, kind: FeatureKind) -> FeatureVector:
    """Divide 256 bin counts by their total so the values sum to one."""
    if kind not in (FeatureKind.LBP, FeatureKind.GRAY):
        raise ValueError("normalize_l1 produces LBP or GRAY features only")
    total = hist.sum()
    if total == 0:
        raise ValueError("cannot normalize a zero-total histogram")
    return FeatureVector(kind, hist / total)


def concat(lbp: FeatureVector, gray: FeatureVector) -> FeatureVector:
    """Juxtapose an LBP block (indices 0-255) and a GRAY block (256-511).

    Blocks keep their own normalization; a CONCAT of unit-mass blocks has
    total mass two.
    """
    if lbp.kind is not FeatureKind.LBP:
        raise ValueError("first block must be an LBP feature")
    if gray.kind is not FeatureKind.GRAY:
        raise ValueError("second block must be a GRAY feature")
    return FeatureVector(FeatureKind.CONCAT, np.concatenate([lbp.values, gray.values]))


def extract_feature(
    img: GrayImage,
    kind: FeatureKind,
    cmp: Comparator = Comparator.STRICT_GREATER,
) -> FeatureVector:
    """Compute the L1-normalized feature of the requested kind for one image."""
    kind = FeatureKind(kind)
    if kind is FeatureKind.GRAY:
        return normalize_l1(gray_histogram(img), FeatureKind.GRAY)
    lbp = normalize_l1(lbp_histogram(lbp_transform(img, cmp)), FeatureKind.LBP)
    if kind is FeatureKind.LBP:
        return lbp
    return concat(lbp, normalize_l1(gray_histogram(img), FeatureKind.GRAY))


def format_feature(fv: FeatureVector) -> str:
    """One-line text form `kind,v0,v1,...` with 17 significant digits."""
    return ",".join([fv.kind.value] + [f"{v:.17g}" for v in fv.values])


def parse_feature(line: str) -> FeatureVector:
    """Inverse of format_feature; the round trip is value-exact."""
    parts = line.strip().split(",")
    if not parts or not parts[0]:
        raise ValueError("empty feature line")
    try:
        kind = FeatureKind(parts[0])
    except ValueError:
        raise ValueError(f"unknown feature kind {parts[0]!r}") from None
    try:
        values = np.array([float(p) for p in parts[1:]], dtype=np.float64)
    except ValueError:
        raise ValueError("feature line holds a non-numeric value") from None
    return FeatureVector(kind, values)
