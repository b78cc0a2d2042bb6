"""Leave-one-out evaluation, per-class reporting, and the resolution sweep.

Every sample is held out once: the image is resized to the working
resolution, the requested feature extracted, a model trained on all other
samples, and the held-out sample predicted. `feature_tables` is the one
place images are resized and featurized, for `extract` as for evaluation,
and the folds of one feature table are solved together
(`classifier.solve_folds`). `EvalReport` is the one result type: `loocv`
returns one, and `resolution_sweep` returns each resolution's reports keyed
by kind. Accuracies are kept as exact integer ratios; rendering to percent
(one decimal, round-half-up) happens only at the output boundary.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .classifier import SolverConfig, solve_folds
from .dataset import LABEL_ADULTERATED, LABEL_NORMAL, LabeledDataset
from .features import FeatureKind, extract_feature
from .imagecore import GrayImage, Resolution, resize_bilinear

# 4:3 sweep grid from 50x37 up to the default working resolution 300x225
DEFAULT_SWEEP_RESOLUTIONS = tuple(
    Resolution(w, h)
    for w, h in (
        (50, 37),
        (75, 56),
        (100, 75),
        (125, 94),
        (150, 113),
        (175, 131),
        (200, 150),
        (225, 169),
        (250, 188),
        (275, 207),
        (300, 225),
    )
)
DEFAULT_RESOLUTION = DEFAULT_SWEEP_RESOLUTIONS[-1]
SWEEP_KINDS = (FeatureKind.LBP, FeatureKind.GRAY, FeatureKind.CONCAT)
# pixels per chunk of resized images featurized together, 64 KiB of uint8
# so the stacked LBP transform's temporaries stay small: 21 images at 64x48,
# where a transform per image would cost mostly its fixed numpy call
# overhead, and 1 at 300x225, where each image is transformed alone
_CHUNK_PIXELS = 1 << 16


@dataclass(eq=False)
class EvalReport:
    """Aggregate of one leave-one-out run.

    `confusion` rows are true classes in order (normal, adulterated),
    columns the predicted classes in the same order. `unconverged` counts
    folds that reached the cap on KKT checks (`max_outer_iterations`, 1000
    by default) without meeting the tolerance; reports do not render it,
    and the CLI warns of it on stderr.
    """

    feature_kind: FeatureKind
    n: int
    correct: int
    confusion: np.ndarray
    misclassified_ids: tuple[str, ...]
    unconverged: int

    @property
    def global_accuracy(self) -> float:
        return self.correct / self.n

    @property
    def normal_total(self) -> int:
        return int(self.confusion[0].sum())

    @property
    def adulterated_total(self) -> int:
        return int(self.confusion[1].sum())


def render_percent(numerator: int, denominator: int) -> str:
    """Exact ratio rendered as a percent with one decimal, round-half-up.

    Computed in integer tenths of a percent so rendering never depends on
    floating point: 57/59 -> "96.6%", 19/20 -> "95.0%".
    """
    if denominator <= 0:
        raise ValueError("denominator must be positive")
    tenths = (2000 * numerator + denominator) // (2 * denominator)
    return f"{tenths // 10}.{tenths % 10}%"


def feature_tables(
    images: Sequence[GrayImage],
    kinds: Sequence[FeatureKind],
    target: Resolution,
) -> dict[FeatureKind, np.ndarray]:
    """Per requested kind, the (n, d) matrix whose row i is the feature of
    `images[i]` resized to `target`.

    Each image is resized once. The resized images are featurized in
    chunks of up to `_CHUNK_PIXELS` pixels, one `extract_feature` call per
    base kind per chunk; CONCAT joins the LBP and GRAY matrices instead of
    extracting again. No image gives (0, d) matrices.
    """
    base = {
        kind: np.empty((len(images), 256))
        for kind in (FeatureKind.LBP, FeatureKind.GRAY)
        if kind in kinds or FeatureKind.CONCAT in kinds
    }
    per = max(1, _CHUNK_PIXELS // (target.width * target.height))
    for lo in range(0, len(images), per):
        chunk = [resize_bilinear(image, target) for image in images[lo : lo + per]]
        for kind, table in base.items():
            table[lo : lo + len(chunk)] = extract_feature(chunk, kind)
    if FeatureKind.CONCAT in kinds:
        base[FeatureKind.CONCAT] = np.hstack([base[FeatureKind.LBP], base[FeatureKind.GRAY]])
    return {kind: base[kind] for kind in kinds}


def _predicted_label(decisions: np.ndarray) -> np.ndarray:
    """+1 (adulterated) where the decision value is >= 0, else -1 (normal).

    A decision value of exactly zero deliberately maps to +1: in a fraud
    screen the conservative error is a false alarm.
    """
    return np.where(decisions >= 0.0, LABEL_ADULTERATED, LABEL_NORMAL)


def _report(
    data: LabeledDataset,
    labels: np.ndarray,
    kind: FeatureKind,
    decisions: np.ndarray,
    converged: np.ndarray,
) -> EvalReport:
    """Tally one feature table's folds, fold i holding out `data.entries[i]`
    whose label is `labels[i]`.

    Misclassified ids keep dataset order.
    """
    predicted = _predicted_label(decisions)
    cells = 2 * (labels == LABEL_ADULTERATED) + (predicted == LABEL_ADULTERATED)
    confusion = np.bincount(cells, minlength=4).reshape(2, 2)
    wrong = (predicted != labels).tolist()
    return EvalReport(
        feature_kind=kind,
        n=len(data),
        correct=int(np.trace(confusion)),
        confusion=confusion,
        misclassified_ids=tuple(e.sample_id for e, w in zip(data.entries, wrong) if w),
        unconverged=len(data) - int(np.count_nonzero(converged)),
    )


def _loocv_reports(
    data: LabeledDataset,
    resolutions: Sequence[Resolution],
    kinds: Sequence[FeatureKind],
    cfg: SolverConfig = SolverConfig(),
) -> dict[Resolution, dict[FeatureKind, EvalReport]]:
    """Each resolution's leave-one-out reports of each kind, in request order.

    Every leave-one-out run starts here, so LOOCV's preconditions are
    checked here, once, before any image is resized. Images are resized
    from their originals inside the run, so the resolution is a parameter
    of the experiment, not of the dataset. All folds of a kind's feature
    table are solved together.
    """
    if not resolutions:
        raise ValueError("at least one resolution is required")
    if len(set(resolutions)) != len(resolutions):
        raise ValueError("duplicate resolutions are not allowed")
    labels = np.array([e.label for e in data.entries])
    _, first, sizes = np.unique(labels, return_index=True, return_counts=True)
    if len(sizes) != 2:  # entries hold only the labels +1 and -1
        raise ValueError("dataset must contain both labels")
    for e in data.entries:
        if e.image is None:
            raise ValueError(f"entry {e.sample_id!r} has no decoded image")
    if any(res.width < 3 or res.height < 3 for res in resolutions):
        raise ValueError("evaluation resolutions must be at least 3x3")
    # holding out the only sample of its class leaves a one-class training set
    if (sizes == 1).any():
        lone = data.entries[first[sizes == 1].min()]
        raise ValueError(
            f"fold holding out {lone.sample_id!r} is untrainable: "
            "training set must contain both labels"
        )
    images = [e.image for e in data.entries]
    sweep = {}
    for res in resolutions:
        reports = sweep[res] = {}
        for kind, table in feature_tables(images, kinds, res).items():
            solution = solve_folds(table, labels, cfg)
            reports[kind] = _report(data, labels, kind, solution.decisions, solution.converged)
    return sweep


def loocv(
    data: LabeledDataset,
    kind: FeatureKind,
    target: Resolution = DEFAULT_RESOLUTION,
    cfg: SolverConfig = SolverConfig(),
) -> EvalReport:
    """Leave-one-out cross-validation at one resolution and feature kind."""
    kind = FeatureKind(kind)
    return _loocv_reports(data, (target,), (kind,), cfg)[target][kind]


def resolution_sweep(
    data: LabeledDataset,
    resolutions: Sequence[Resolution] = DEFAULT_SWEEP_RESOLUTIONS,
    cfg: SolverConfig = SolverConfig(),
) -> dict[Resolution, dict[FeatureKind, EvalReport]]:
    """Each resolution's leave-one-out reports of all three feature kinds,
    keyed in request order.

    Each (resolution, image) pair is resized and histogrammed once; each
    kind's table of the row then has all its folds solved together.
    """
    return _loocv_reports(data, resolutions, SWEEP_KINDS, cfg)


def _class_block(correct: int, total: int) -> dict:
    return {
        "correct": correct,
        "total": total,
        "accuracy": correct / total if total else None,
        "percent": render_percent(correct, total) if total else None,
    }


def _per_class(report: EvalReport) -> dict[str, dict]:
    totals = {"normal": report.normal_total, "adulterated": report.adulterated_total}
    return {
        name: _class_block(int(report.confusion[i, i]), total)
        for i, (name, total) in enumerate(totals.items())
    }


def report_to_json(report: EvalReport) -> str:
    obj = {
        "feature_kind": report.feature_kind.value,
        "n": report.n,
        "correct": report.correct,
        "global_accuracy": report.global_accuracy,
        "global_percent": render_percent(report.correct, report.n),
        "per_class": _per_class(report),
        "confusion": report.confusion.tolist(),
        "misclassified_ids": list(report.misclassified_ids),
    }
    return json.dumps(obj, indent=2) + "\n"


def sweep_to_json(sweep: dict[Resolution, dict[FeatureKind, EvalReport]]) -> str:
    rows = []
    for res, reports in sweep.items():
        n = reports[SWEEP_KINDS[0]].n
        rows.append(
            {
                "width": res.width,
                "height": res.height,
                "n": n,
                **{kind.value: _class_block(reports[kind].correct, n) for kind in SWEEP_KINDS},
            }
        )
    return json.dumps({"rows": rows}, indent=2) + "\n"


def sweep_to_table(sweep: dict[Resolution, dict[FeatureKind, EvalReport]]) -> str:
    """Comma-separated sweep table: width,height,acc_lbp,acc_gray,acc_concat."""
    lines = ["width,height,acc_lbp,acc_gray,acc_concat"]
    for res, reports in sweep.items():
        accuracies = ",".join(repr(reports[kind].global_accuracy) for kind in SWEEP_KINDS)
        lines.append(f"{res.width},{res.height},{accuracies}")
    return "\n".join(lines) + "\n"
