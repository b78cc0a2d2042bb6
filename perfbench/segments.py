"""Timing on a shared host: segment minima, corrected by interleaved calibration.

The host is shared, and its speed changes within seconds and for minutes at
a time, so the time of a whole iteration depends on when it ran. The
program's work is the same in every iteration, though, so the benchmark
cuts each iteration into segments and keeps, for every segment, its
fastest time over the run. The sum of those minima estimates the
iteration's time on a quieter host; a slow episode has to cover the same
segment in every iteration to count.

Segment boundaries are the entries and exits of calls to a few functions of
the program (``MARKS``), wrapped at the name their caller binds, as the
tracer does. A wrapper appends one clock reading. The boundaries come in
the same order in every iteration because the program is deterministic; if
they do not, the run falls back to the fastest whole iteration. A change
that stops calling a marked function makes segments coarser, which can only
raise the estimate.

A minute-long slow episode stretches every segment of a run alike, which
no minimum removes, so the run also times a fixed calibration piece of the
benchmark's own at every ``every``-th boundary, inside the iterations: the
pieces meet the same episodes as the segments around them, and their
minima are taken the same way. Times are converted to seconds of a host on
which a piece takes ``REFERENCE_PIECE_S`` (``host_factor``). The program
cannot change the pieces, so a program change that costs some share of
time shows as that share.
"""

from __future__ import annotations

import inspect
import sys
import time

import numpy as np

from tracing import _resolve_owner

# Clock of every boundary: CLOCK_MONOTONIC, the clock run.py reads when it
# starts a child.
clock = time.monotonic

MARKS = {
    "sweep-frozen": (
        "texscreen.evaluation.resize_bilinear",
        "texscreen.evaluation.extract_feature",
        "texscreen.evaluation.train_csvc",
    ),
    "loocv-solver": (
        "texscreen.evaluation.extract_feature",
        "texscreen.evaluation.train_csvc",
        "texscreen.classifier.projected_gradient",
    ),
    "ingest-ref": (
        "texscreen.cli.main",
        "texscreen.cli.decode_image",
        "texscreen.cli.encode_pgm",
        "texscreen.cli.extract_feature",
        "texscreen.cli.resize_bilinear",
        "texscreen.evaluation.resize_bilinear",
        "texscreen.evaluation.train_csvc",
        "texscreen.dataset._box_blur",
    ),
}
PIECES_PER_ITERATION = 40  # about this many calibration pieces per iteration


class Marks:
    """Clock readings at every entry and exit of the marked functions.

    With ``every`` set, a calibration piece runs at every ``every``-th
    boundary, between two readings; ``pieces`` lists the indices of those
    segments in the iteration's durations.
    """

    def __init__(self, workload: str):
        self.names = MARKS[workload]
        self.stamps: list[float] = []
        self.pieces: list[int] = []
        self.every = 0
        self.count = 0
        self._restore: list[tuple] = []

    def start(self, t0: float) -> None:
        self.stamps.clear()
        self.pieces.clear()
        self.count = 0
        self.stamps.append(t0)

    def durations(self, t1: float) -> tuple[np.ndarray, np.ndarray]:
        """Durations of the program's segments and of the calibration pieces."""
        self.stamps.append(t1)
        d = np.diff(np.asarray(self.stamps, dtype=np.float64))
        return np.delete(d, self.pieces), d[self.pieces]

    def __enter__(self) -> "Marks":
        missing = []
        for path in self.names:
            owner_path, attr = path.rsplit(".", 1)
            try:
                owner = _resolve_owner(owner_path)
                original = inspect.getattr_static(owner, attr)
            except (ImportError, AttributeError):
                missing.append(path)
                continue
            setattr(owner, attr, self._wrap(original))
            self._restore.append((owner, attr, original))
        if missing:
            print(f"segments: not bound: {', '.join(missing)}", file=sys.stderr)
        return self

    def __exit__(self, *exc) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _boundary(self) -> None:
        self.count += 1
        if self.every and self.count % self.every == 0:
            self.stamps.append(clock())
            self.pieces.append(len(self.stamps) - 1)
            _piece()
        self.stamps.append(clock())

    def _wrap(self, fn):
        boundary = self._boundary

        def marked(*args, **kwargs):
            boundary()
            try:
                return fn(*args, **kwargs)
            finally:
                boundary()

        return marked


class SegmentMinima:
    """Per-segment fastest time over rows of durations of the same segments."""

    def __init__(self):
        self.minima: np.ndarray | None = None
        self.consistent = True

    def add(self, durations: np.ndarray) -> None:
        if self.minima is None:
            self.minima = np.array(durations, dtype=np.float64)
        elif len(durations) != len(self.minima):
            self.consistent = False
        else:
            np.minimum(self.minima, durations, out=self.minima)

    def total(self) -> float | None:
        """Sum of the minima, or None if the rows did not cut the same segments."""
        if self.minima is None or not self.consistent:
            return None
        return float(self.minima.sum())

    def __len__(self) -> int:
        return 0 if self.minima is None else len(self.minima)


# The calibration piece mixes what the workloads do: a Python loop of small
# dot products, Python integer arithmetic as in SplitMix64, a numpy pass
# over 128 KB. Its buffers are preallocated, so that its time does not
# depend on the allocator's state, and small, so that it evicts little of
# the program's data when it runs between two of its calls.
_rng = np.random.default_rng(0)
_ROWS = _rng.random((40, 256))
_FIELD = _rng.random(16_000)
_W = np.zeros(_ROWS.shape[1])
_STEP = np.zeros(_ROWS.shape[1])
_SCRATCH = np.zeros_like(_FIELD)
# About the fastest time of one piece timed between the program's segments
# on the host the baseline was taken on (Intel Xeon, 2 vCPUs, Python 3.11),
# where the program has left the caches cold for it: times are reported in
# seconds of a host on which a piece takes this long.
REFERENCE_PIECE_S = 2.6e-4
# The same for pieces run back to back, as after set-up, where the caches
# stay warm for them.
REFERENCE_BURST_PIECE_S = 1.75e-4


def _piece() -> float:
    _W.fill(0.0)
    for row in _ROWS:
        if float(row @ _W) < 1.0:
            np.multiply(row, 1e-3, out=_STEP)
            np.add(_W, _STEP, out=_W)
    z = 1
    for _ in range(400):
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    np.multiply(_FIELD, 1.5, out=_SCRATCH)
    np.add(_SCRATCH, 2.0, out=_SCRATCH)
    np.sqrt(_SCRATCH, out=_SCRATCH)
    return float(_SCRATCH.sum()) + z


def calibrate(pieces: int = PIECES_PER_ITERATION) -> np.ndarray:
    """Durations of `pieces` calibration pieces run back to back."""
    _piece()  # untimed: first touches of the buffers
    boundaries = [clock()]
    for _ in range(pieces):
        _piece()
        boundaries.append(clock())
    return np.diff(boundaries)


def host_factor(calibration_s: float, pieces: int, reference_s: float = REFERENCE_PIECE_S) -> float:
    """Seconds of the reference host per second of this host, from `pieces` pieces."""
    return pieces * reference_s / calibration_s
