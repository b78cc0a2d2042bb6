"""Labeled samples, manifest text, and the seeded synthetic benchmark generator.

A labeled sample is a `DatasetEntry`: an id, a label (+1 adulterated, -1
normal), a group (1 or 2), the image path it was listed under, and its
decoded image once the pixels are read. `LabeledDataset` is an ordered
collection of entries with unique ids; it is what manifests parse into,
what the generator returns, and what evaluation consumes.

Manifests are comma-separated text with header `id,path,label,group`, one
entry per line; labels are `normal` or `adulterated`, groups 1 or 2.

The synthetic benchmark pairs each "normal" image (seeded uniform noise,
box-blurred so neighboring pixels correlate) with an "adulterated" twin
whose pixels are the identical multiset randomly permuted in position. The
blur-induced spatial structure is destroyed, so texture codes separate the
classes, while at native resolution the twins share their gray-level
histogram exactly. Gray histograms still do not score at chance (the
README's measured limitation): on the frozen set GRAY scores 6/40 at native
64x48, an artifact of the pairs, and 40/40 on resized sweep rows, where
resizing leaks the label into the gray histogram.

All randomness comes from one SplitMix64 stream. Its state after k draws is
seed + k*gamma mod 2^64 (Steele, Lea & Flood 2014), so the generator draws
whole blocks of outputs at once in numpy uint64 and its images are the same
bytes a one-draw-at-a-time loop would produce.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass, fields

import numpy as np

from .imagecore import GrayImage

LABEL_ADULTERATED = 1
LABEL_NORMAL = -1
LABEL_NAMES = {LABEL_NORMAL: "normal", LABEL_ADULTERATED: "adulterated"}
LABEL_VALUES = {name: value for value, name in LABEL_NAMES.items()}
MANIFEST_HEADER = ("id", "path", "label", "group")
# only CR, LF and CRLF end a manifest line: `str.splitlines` would also split
# inside ids and paths that hold other line-break characters
_LINE_BREAK = re.compile(r"\r\n|\r|\n")


class ManifestError(ValueError):
    """Malformed manifest text; `line` is the 1-based offending line."""

    def __init__(self, message: str, line: int):
        super().__init__(f"{message} (line {line})")
        self.line = line


@dataclass(frozen=True)
class DatasetEntry:
    sample_id: str
    image: GrayImage | None  # None until the pixels are decoded
    label: int  # +1 adulterated, -1 normal
    group: int  # 1 or 2
    path: str = ""  # where the image is listed, relative to its manifest

    def __post_init__(self):
        if not isinstance(self.sample_id, str) or not self.sample_id:
            raise ValueError(f"sample id must be a non-empty str, not {self.sample_id!r}")
        for name, allowed, rule in (("label", (1, -1), "+1 or -1"), ("group", (1, 2), "1 or 2")):
            value = getattr(self, name)
            integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            if not integer or value not in allowed:
                raise ValueError(f"{name} must be {rule}, not {value!r}")
            object.__setattr__(self, name, int(value))


@dataclass(frozen=True)
class LabeledDataset:
    entries: tuple[DatasetEntry, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        seen = set()
        for e in self.entries:
            if e.sample_id in seen:
                raise ValueError(f"duplicate sample id {e.sample_id!r}")
            seen.add(e.sample_id)

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class SyntheticSpec:
    seed: int
    per_class: int
    width: int
    height: int

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{field.name} must be an integer, not {value!r}")
            object.__setattr__(self, field.name, int(value))
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        if self.per_class < 2:
            raise ValueError("per_class must be at least 2")
        if self.width < 8 or self.height < 8:
            raise ValueError("synthetic images must be at least 8x8")
        if 2 * self.per_class * self.width * self.height >= 2**31:
            raise ValueError(
                "2 * per_class * width * height must be below 2^31, "
                "the pixels generated at once"
            )


# the normal images' blur radius: every pinned synthetic byte is drawn at 2
_SMOOTHING_RADIUS = 2
_GAMMA = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1
# Fisher-Yates indices are drawn this many at a time: drawing all n-1 of a
# twin's indices in one block measured slower in 6 of 6 benchmark runs.
_SHUFFLE_BLOCK = 8192


class SplitMix64:
    """Deterministic 64-bit generator, drawn in blocks.

    State update: s <- (s + 0x9E3779B97F4A7C15) mod 2^64. Output: z = s,
    z ^= z >> 30, z *= 0xBF58476D1CE4E5B9, z ^= z >> 27,
    z *= 0x94D049BB133111EB, z ^= z >> 31 (all mod 2^64). After k draws
    the state is seed + k*gamma mod 2^64, so a block of outputs is computed
    at once in numpy uint64 (which wraps mod 2^64) and equals the scalar
    stream exactly.
    """

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_block(self, count: int) -> np.ndarray:
        """The next `count` outputs as a uint64 array; advances the state."""
        z = np.arange(1, count + 1, dtype=np.uint64)
        z *= np.uint64(_GAMMA)
        z += np.uint64(self.state)
        z ^= z >> np.uint64(30)
        z *= np.uint64(0xBF58476D1CE4E5B9)
        z ^= z >> np.uint64(27)
        z *= np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
        self.state = (self.state + count * _GAMMA) & _MASK
        return z


def _csv_fields(line: str, lineno: int) -> list[str]:
    """The csv fields of one manifest line; a NUL, which csv reads only from
    Python 3.11 on, or a csv defect is a ManifestError."""
    if "\0" in line:
        raise ManifestError("line contains a NUL character", lineno)
    try:
        return next(csv.reader([line]))
    except csv.Error as exc:
        raise ManifestError(str(exc), lineno) from None


def load_manifest(data: bytes | str) -> LabeledDataset:
    """Parse manifest text into image-less entries, reporting defects, a NUL
    anywhere and csv's own too (such as a field longer than
    csv.field_size_limit()), as ManifestErrors with their line number."""
    if isinstance(data, bytes):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = len(_LINE_BREAK.split(data[: exc.start].decode("utf-8")))
            raise ManifestError(f"invalid UTF-8 at byte {exc.start}", line) from None
    else:
        text = data
    lines = _LINE_BREAK.split(text)
    if lines[-1] == "":
        lines.pop()
    if not lines:
        raise ManifestError("missing header", 1)
    header = tuple(_csv_fields(lines[0], 1))
    if header != MANIFEST_HEADER:
        raise ManifestError(
            f"header must be {','.join(MANIFEST_HEADER)!r}, got {lines[0]!r}", 1
        )
    entries: list[DatasetEntry] = []
    seen: set[str] = set()
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = _csv_fields(line, lineno)
        if len(fields) != 4:
            raise ManifestError(f"expected 4 fields, got {len(fields)}", lineno)
        sample_id, path, label_token, group_token = fields
        if not path:
            raise ManifestError("missing path", lineno)
        if label_token not in LABEL_VALUES:
            raise ManifestError(f"unknown label {label_token!r}", lineno)
        if group_token not in ("1", "2"):
            raise ManifestError(f"unknown group {group_token!r}", lineno)
        if not sample_id:
            raise ManifestError("sample id must be non-empty", lineno)
        if sample_id in seen:
            raise ManifestError(f"duplicate id {sample_id!r}", lineno)
        seen.add(sample_id)
        entries.append(
            DatasetEntry(sample_id, None, LABEL_VALUES[label_token], int(group_token), path)
        )
    return LabeledDataset(tuple(entries))


def serialize_manifest(dataset: LabeledDataset) -> str:
    """Render manifest text; load_manifest(serialize_manifest(d)) == d when
    d's entries carry no image. An entry this text cannot hold raises
    ValueError: an empty path, a NUL, CR or LF (which end a line) in its id
    or path, or an id or path longer than csv.field_size_limit()."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(MANIFEST_HEADER)
    limit = csv.field_size_limit()
    for e in dataset.entries:
        too_long = max(len(e.sample_id), len(e.path)) > limit
        text = e.sample_id + e.path
        if not e.path or "\0" in text or _LINE_BREAK.search(text) or too_long:
            raise ValueError(
                f"entry {e.sample_id!r} cannot be written: empty path, NUL, "
                f"CR/LF, or a field longer than {limit} characters"
            )
        writer.writerow([e.sample_id, e.path, LABEL_NAMES[e.label], str(e.group)])
    return buf.getvalue()


def _box_blur(pixels: np.ndarray, radius: int) -> np.ndarray:
    """Mean over a (2r+1)^2 window clipped to the image, rounded half-up.

    The window is separable: each axis's window sums add 2r+1 shifted slices
    of a copy zero-padded by r on both sides, rows first, in int32. A mean of
    pixels lies in [0, 255], so the result is uint8. int32 holds
    2*sums + counts while 511 times the clipped window's area stays below
    2^31, which every radius under 1024 meets.
    """
    h, w = pixels.shape
    span = 2 * radius + 1
    padded = np.zeros((h + 2 * radius, w), dtype=np.int32)
    padded[radius : radius + h] = pixels
    across = np.zeros((h, w + 2 * radius), dtype=np.int32)
    columns = across[:, radius : radius + w]  # the column sums, padded by r zeros
    columns[...] = padded[:h]
    for k in range(1, span):
        columns += padded[k : k + h]
    del padded, columns  # the view would keep `across` alive below
    sums = across[:, :w].copy()
    for k in range(1, span):
        sums += across[:, k : k + w]
    del across
    y0 = np.maximum(np.arange(h) - radius, 0)
    y1 = np.minimum(np.arange(h) + radius + 1, h)
    x0 = np.maximum(np.arange(w) - radius, 0)
    x1 = np.minimum(np.arange(w) + radius + 1, w)
    counts = (y1 - y0).astype(np.int32)[:, None] * (x1 - x0).astype(np.int32)
    # (2*sums + counts) // (2*counts), in place
    sums *= 2
    sums += counts
    counts *= 2
    sums //= counts
    return sums.astype(np.uint8)


def _swap_sources(j: np.ndarray) -> np.ndarray:
    """Source cell of every output cell after the swaps cells[i] <-> cells[j[i]]
    run for i = n-1 .. 1, as int32.

    `j` holds j[i] <= i for n < 2^31 cells; j[0] = 0 is a virtual step that
    reads cell 0 last. Step i is the last to touch cell i, which then
    receives what cell j[i] held just before step i: what the nearest higher
    step that also targets j[i] brought there, or j[i]'s own value if no
    such step exists. Step m brings what cell m held just before step m, by
    the same rule, so every source is the root of a pointer chain, found by
    pointer jumping (Hillis & Steele 1986).
    """
    n = len(j)
    keys = j.astype(np.int64)
    keys <<= 32
    keys |= np.arange(n, dtype=np.int32)
    keys.sort()  # steps grouped by the cell they target, ascending inside each group
    steps = (keys & 0xFFFFFFFF).astype(np.int32)
    keys >>= 32
    targets = keys.astype(np.int32)
    del keys
    continues = targets[1:] == targets[:-1]  # the next step targets the same cell
    # cell m's value before step m came from the first step that targets m,
    # if there is one, else it is m's own. (If that first step is m itself,
    # no step reads m's chain.) Every other step writes to a spare slot at
    # n, so the scatter needs no mask.
    slots = targets.copy()
    slots[1:] += (n - targets[1:]) * continues
    chain = np.arange(n + 1, dtype=np.int32)
    chain[slots] = steps
    chain = chain[:n]
    del slots
    jumped = np.empty_like(chain)
    while True:
        np.take(chain, chain, out=jumped)
        if np.array_equal(jumped, chain):
            break
        chain, jumped = jumped, chain
    # a step reads the root of the next step in its group; the last step of
    # a group reads its target's own value (selected by arithmetic, which
    # beats a masked copy on this unpredictable mask)
    roots = jumped[:-1]
    np.take(chain, steps[1:], out=roots)
    roots -= targets[:-1]
    roots *= continues
    targets[:-1] += roots
    sources = jumped
    sources[steps] = targets
    return sources


def generate_synthetic(spec: SyntheticSpec) -> tuple[list[GrayImage], LabeledDataset]:
    """Build the paired synthetic benchmark; same spec, same bytes.

    The stream is consumed in a fixed order per pair k: height*width outputs
    whose top bytes are the noise field, row-major, then n-1 Fisher-Yates
    draws, the one for i = n-1 .. 1 reduced modulo i+1, that permute the
    blurred result into the adulterated twin. The swaps are applied at once
    (`_swap_sources`). Pairs alternate between groups 1 and 2. Twin
    gray-level histograms are verified equal before returning. Each entry
    carries its image and a `<id>.pgm` path; the images are also returned in
    entry order.
    """
    rng = SplitMix64(spec.seed)
    entries: list[DatasetEntry] = []
    n = spec.width * spec.height
    swaps = np.zeros(n, dtype=np.int32)  # swaps[i]: the cell step i swaps with
    for k in range(spec.per_class):
        raw = rng.next_block(n)
        raw >>= np.uint64(56)
        raw = raw.astype(np.uint8)  # frees the uint64 draw before the blur
        normal_pixels = _box_blur(raw.reshape(spec.height, spec.width), _SMOOTHING_RADIUS)

        for top in range(n - 1, 0, -_SHUFFLE_BLOCK):
            low = max(top - _SHUFFLE_BLOCK, 0)  # this block draws for i = top .. low+1
            draws = rng.next_block(top - low)
            draws %= np.arange(top + 1, low + 1, -1, dtype=np.uint64)
            swaps[top:low:-1] = draws
        adulterated_pixels = normal_pixels.ravel()[_swap_sources(swaps)].reshape(
            spec.height, spec.width
        )

        if not np.array_equal(
            np.bincount(normal_pixels.ravel(), minlength=256),
            np.bincount(adulterated_pixels.ravel(), minlength=256),
        ):
            raise AssertionError("twin images must share their gray histogram exactly")

        group = 1 if k % 2 == 0 else 2
        for label_name, pixels in (("normal", normal_pixels), ("adulterated", adulterated_pixels)):
            sample_id = f"{label_name}-{k:03d}"
            label = LABEL_VALUES[label_name]
            image = GrayImage(pixels)
            entries.append(DatasetEntry(sample_id, image, label, group, f"{sample_id}.pgm"))
    return [e.image for e in entries], LabeledDataset(tuple(entries))
