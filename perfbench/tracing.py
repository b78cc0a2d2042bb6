"""Call tracing for the benchmark's traced run.

The program's source is not touched. A `Tracer` replaces each public
function at the name its caller binds (``from .imagecore import
resize_bilinear`` copies the reference into ``texscreen.evaluation``, so
that is where the wrapper goes) and restores the originals on exit. Every
wrapped call becomes one span ``[name, parent index, start ns, end ns,
attrs]``; spans stay in memory until `write_spans`.

A span name is ``<layer>.<operation>``; the layer is the texscreen module
that owns the function. Self time of a span is its duration minus the
durations of its direct children. Work the tracer itself does inside a
span (hashing inputs to count distinct ones) is recorded as a child span in
the ``trace`` layer, so it is charged to no program layer.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("imagecore", "features", "classifier", "evaluation", "dataset", "cli")

# SplitMix64 advances its state by this odd constant per draw, so the number
# of draws is (state - seed) * GAMMA^-1 mod 2^64 (Steele, Lea & Flood 2014).
_GAMMA = 0x9E3779B97F4A7C15
_GAMMA_INV = pow(_GAMMA, -1, 1 << 64)
_MASK = (1 << 64) - 1


def _image_key(img, *rest, **kwargs):
    """Identity of an (image content, other arguments) call, for useful ratios."""
    pixels = np.ascontiguousarray(img.pixels)
    digest = hashlib.blake2b(pixels.data, digest_size=16).digest()
    return digest, pixels.shape, rest, tuple(sorted(kwargs.items()))


def _passes(result, *args, **kwargs):
    return {"passes": result.passes, "unconverged": int(not result.converged)}


def _bytes_in(result, data, *args, **kwargs):
    return {"bytes_in": len(data)}


def _bytes_out(result, *args, **kwargs):
    return {"bytes_out": len(result)}


def _folds(result, *args, **kwargs):
    return {"folds": result.n}


# (owner, attribute, span name, key function, attrs function). The owner is a
# module or module.Class path. A function bound in several modules is listed
# once per binding.
BINDINGS = (
    ("texscreen.evaluation", "resize_bilinear", "imagecore.resize", _image_key, None),
    ("texscreen.cli", "resize_bilinear", "imagecore.resize", _image_key, None),
    ("texscreen.cli", "decode_image", "imagecore.decode", None, _bytes_in),
    ("texscreen.cli", "to_grayscale", "imagecore.to_grayscale", None, None),
    ("texscreen.cli", "encode_pgm", "imagecore.encode", None, None),
    ("texscreen.evaluation", "extract_feature", "features.extract", None, None),
    ("texscreen.cli", "extract_feature", "features.extract", None, None),
    ("texscreen.features", "lbp_transform", "features.lbp_transform", _image_key, None),
    ("texscreen.features", "lbp_histogram", "features.histograms", None, None),
    ("texscreen.features", "gray_histogram", "features.histograms", None, None),
    ("texscreen.features", "normalize_l1", "features.histograms", None, None),
    ("texscreen.features", "concat", "features.histograms", None, None),
    ("texscreen.cli", "format_feature", "features.format", None, _bytes_out),
    ("texscreen.classifier.TrainingSet", "from_samples", "classifier.from_samples", None, None),
    ("texscreen.evaluation", "train_csvc", "classifier.train", None, None),
    ("texscreen.classifier", "solve_dual", "classifier.solve_dual", None, _passes),
    ("texscreen.evaluation", "predict", "classifier.predict", None, None),
    ("texscreen.evaluation", "decision_value", "classifier.predict", None, None),
    ("texscreen.evaluation", "resolution_sweep", "evaluation.sweep", None, None),
    ("texscreen.evaluation", "loocv", "evaluation.loocv", None, _folds),
    ("texscreen.cli", "loocv", "evaluation.loocv", None, _folds),
    ("texscreen.evaluation", "sweep_to_json", "evaluation.render", None, None),
    ("texscreen.evaluation", "sweep_to_table", "evaluation.render", None, None),
    ("texscreen.evaluation", "report_to_json", "evaluation.render", None, None),
    ("texscreen.cli", "sweep_to_json", "evaluation.render", None, None),
    ("texscreen.cli", "sweep_to_table", "evaluation.render", None, None),
    ("texscreen.cli", "report_to_json", "evaluation.render", None, None),
    ("texscreen.cli", "report_to_table", "evaluation.render", None, None),
    ("texscreen.dataset", "generate_synthetic", "dataset.generate", None, None),
    ("texscreen.cli", "generate_synthetic", "dataset.generate", None, None),
    ("texscreen.cli", "load_manifest", "dataset.manifest", None, None),
    ("texscreen.cli", "serialize_manifest", "dataset.manifest", None, None),
    ("texscreen.cli", "main", "cli.main", None, None),
)


def _resolve_owner(path: str):
    """The module, or the class inside a module, that `path` names."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            owner = getattr(owner, attr)
        return owner
    raise ImportError(path)


class Tracer:
    """Spans of one traced phase; use as a context manager to install."""

    def __init__(self):
        self.spans: list[list] = []
        self.keys: dict[str, set] = defaultdict(set)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self._rngs: list = []

    def __enter__(self) -> "Tracer":
        for owner_path, attr, name, key, attrs in BINDINGS:
            try:
                owner = _resolve_owner(owner_path)
                original = inspect.getattr_static(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{owner_path}.{attr}")
                continue
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(original.__func__, name, key, attrs))
            else:
                wrapped = self._wrap(original, name, key, attrs)
            setattr(owner, attr, wrapped)
            self._restore.append((owner, attr, original))
        self._count_rng_draws()
        if self.missing:
            print(f"trace: not bound: {', '.join(self.missing)}", file=sys.stderr)
        return self

    def __exit__(self, *exc) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _count_rng_draws(self) -> None:
        try:
            dataset = importlib.import_module("texscreen.dataset")
            base = dataset.SplitMix64
        except (ImportError, AttributeError):
            self.missing.append("texscreen.dataset.SplitMix64")
            return
        rngs = self._rngs

        class CountedSplitMix64(base):
            def __init__(self, seed, *args, **kwargs):
                super().__init__(seed, *args, **kwargs)
                self.initial_state = self.state
                rngs.append(self)

        dataset.SplitMix64 = CountedSplitMix64
        self._restore.append((dataset, "SplitMix64", base))

    def rng_draws(self) -> int:
        return sum(((r.state - r.initial_state) * _GAMMA_INV) & _MASK for r in self._rngs)

    def _wrap(self, fn, name, key, attrs):
        spans, stack, keys = self.spans, self._stack, self.keys
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if key is not None:
                started = clock()
                keys[name].add(key(*args, **kwargs))
                spans.append(["trace.key", parent, started, clock(), None])
            span = [name, parent, clock(), 0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if attrs is not None:
                span[4] = attrs(result, *args, **kwargs)
            return result

        return traced


def summarize(phases: list[Tracer]) -> dict[str, float]:
    """Per-layer metrics over the spans of several phases taken together."""
    self_ns: Counter = Counter()
    calls: Counter = Counter()
    sums: Counter = Counter()
    keys: dict[str, set] = defaultdict(set)
    for tracer in phases:
        child_ns = [0] * len(tracer.spans)
        for name, parent, start, end, _ in tracer.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for (name, _, start, end, attrs), inner in zip(tracer.spans, child_ns):
            self_ns[name] += end - start - inner
            calls[name] += 1
            if attrs:
                sums.update(attrs)
        for name, seen in tracer.keys.items():
            keys[name] |= seen
        sums["rng_draws"] += tracer.rng_draws()

    def ratio(name: str) -> float:
        return len(keys[name]) / calls[name] if calls[name] else 0.0

    m = {
        "imagecore.resize.calls": calls["imagecore.resize"],
        "imagecore.resize.useful_ratio": ratio("imagecore.resize"),
        "imagecore.decode.bytes_in": sums["bytes_in"],
        "features.lbp_transform.calls": calls["features.lbp_transform"],
        "features.lbp_transform.useful_ratio": ratio("features.lbp_transform"),
        "features.format.bytes_out": sums["bytes_out"],
        "classifier.from_samples.calls": calls["classifier.from_samples"],
        "classifier.solve_dual.passes": sums["passes"],
        "classifier.solve_dual.unconverged": sums["unconverged"],
        "evaluation.loocv.calls": calls["evaluation.loocv"],
        "evaluation.folds": sums["folds"],
        "dataset.rng_draws": sums["rng_draws"],
    }
    for name in (
        "imagecore.resize",
        "imagecore.decode",
        "imagecore.to_grayscale",
        "imagecore.encode",
        "features.lbp_transform",
        "features.histograms",
        "features.format",
        "classifier.from_samples",
        "classifier.solve_dual",
        "classifier.predict",
        "evaluation.loocv",
        "evaluation.render",
        "dataset.generate",
        "cli.main",
    ):
        m[f"{name}.self_s"] = self_ns[name] / 1e9
    for layer in LAYERS + ("trace",):
        m[f"{layer}.self_s"] = (
            sum(ns for name, ns in self_ns.items() if name.split(".")[0] == layer) / 1e9
        )
    return m


def write_spans(path, phases: list[tuple[str, Tracer]]) -> None:
    """Write every span once, one JSON object per line, after the run ends."""
    with open(path, "w", encoding="utf-8") as out:
        for label, tracer in phases:
            for index, (name, parent, start, end, attrs) in enumerate(tracer.spans):
                record = {
                    "phase": label,
                    "id": index,
                    "parent": parent,
                    "name": name,
                    "start_ns": start,
                    "end_ns": end,
                }
                if attrs:
                    record["attrs"] = attrs
                out.write(json.dumps(record) + "\n")
