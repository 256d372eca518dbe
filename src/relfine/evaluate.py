"""Segmentation metrics, discrete constraint satisfaction, and bucketed
comparisons between a baseline run and a refined run.
"""

from __future__ import annotations

import csv
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Literal, Sequence

import numpy as np

from .errors import FormatError, SceneSetMismatchError, writing_to
from .grid import LabelMap
from .logic import band_tables, encode_triplets, outside_sums
from .relations import SpatialTriplet, TripletSet
from .scenes import Scene

GroupBy = Literal["categories"]

#: A triplet is satisfied when at least this share of its subject's
#: predicted pixels lie on its side of the object.
SATISFACTION_THRESHOLD = 0.95


def _confusion(pred: LabelMap, gt: LabelMap, num_categories: int) -> np.ndarray:
    """Pixel counts indexed [ground truth, prediction], sized to hold every
    label either map may carry so that no pixel is left out of the totals."""
    if pred.shape != gt.shape:
        raise FormatError(f"prediction shape {pred.shape} != ground truth shape {gt.shape}")
    size = max(num_categories, pred.num_categories, gt.num_categories)
    flat = gt.labels.ravel() * size + pred.labels.ravel()
    return np.bincount(flat, minlength=size * size).reshape(size, size)


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _scores(counts: np.ndarray, num_categories: int) -> tuple[dict[int, float], float, float]:
    """IoU of each category with a nonempty union, their mean, and the mean
    recall of the categories present in the ground truth."""
    hits = np.diagonal(counts)
    support = counts.sum(axis=1)
    unions = support + counts.sum(axis=0) - hits
    categories = range(num_categories)
    ious = {c: float(hits[c]) / int(unions[c]) for c in categories if unions[c]}
    recalls = [float(hits[c]) / int(support[c]) for c in categories if support[c]]
    return ious, _mean(list(ious.values())), _mean(recalls)


def iou_per_class(pred: LabelMap, gt: LabelMap, num_categories: int) -> dict[int, float]:
    """IoU per category index; categories with an empty union are skipped."""
    return _scores(_confusion(pred, gt, num_categories), num_categories)[0]


def miou(pred: LabelMap, gt: LabelMap, num_categories: int) -> float:
    """Mean IoU over categories present in the prediction or the ground truth."""
    return _scores(_confusion(pred, gt, num_categories), num_categories)[1]


def macc(pred: LabelMap, gt: LabelMap, num_categories: int) -> float:
    """Mean per-class recall over categories present in the ground truth."""
    return _scores(_confusion(pred, gt, num_categories), num_categories)[2]


def satisfied_flags(
    pred: LabelMap,
    roster: Sequence[str],
    triplets: TripletSet | Sequence[SpatialTriplet],
) -> np.ndarray:
    """triplet_satisfied for every triplet at once, as a (T,) bool array.

    The bands are the loss's, taken over the one-hot label maps with no
    epsilon, and the subject's outside count is the loss's outside sum over
    those maps.
    """
    subjects, keys = encode_triplets(roster, triplets)
    onehot = (pred.labels == np.arange(len(roster))[:, None, None]).astype(np.float64)
    outside = outside_sums(onehot, *band_tables(onehot, 0.0))[subjects, keys]
    pixels = onehot.sum(axis=(1, 2))[subjects]
    share = np.divide(pixels - outside, pixels, out=np.zeros_like(pixels), where=pixels != 0.0)
    return (pixels == 0.0) | (share >= SATISFACTION_THRESHOLD)


def triplet_satisfied(pred: LabelMap, roster: Sequence[str], triplet: SpatialTriplet) -> bool:
    """Discrete check of one triplet against predicted labels.

    Satisfied when at least SATISFACTION_THRESHOLD of the subject's predicted
    pixels lie in the half plane on the triplet's side of the object's one-hot
    mask mean. Purely discrete: no soft maps and no epsilon in the mean, so a
    pixel at the exact mean counts for both opposing sides. A subject with no
    predicted pixels is vacuously satisfied.
    """
    return bool(satisfied_flags(pred, roster, (triplet,))[0])


def constraint_satisfaction(pred: LabelMap, roster: Sequence[str], triplets: TripletSet) -> float:
    """Fraction of triplets discretely satisfied by the predicted labels;
    1.0 for an empty set."""
    return _satisfied_share(satisfied_flags(pred, roster, triplets))


def _satisfied_share(flags: np.ndarray) -> float:
    """Fraction of true flags; 1.0 when there are none."""
    return int(flags.sum()) / len(flags) if len(flags) else 1.0


@dataclass(frozen=True)
class EvalReport:
    """Metrics for one scene; compare_runs groups scenes by category_count."""

    scene: str
    miou: float
    macc: float
    constraint_satisfaction: float
    per_class_iou: dict[str, float]
    category_count: int
    constraint_count: int

    def to_dict(self) -> dict:
        return asdict(self)


def evaluate_scene(
    pred: LabelMap,
    scene: Scene,
    triplets: TripletSet | None = None,
    name: str | None = None,
    flags: np.ndarray | None = None,
) -> EvalReport:
    """Score a prediction against a scene's ground truth.

    The category count groups by ground truth: distinct non-background
    categories present in the label map. A caller that already holds
    `satisfied_flags(pred, scene.categories, triplets)` passes it
    as `flags`, and the triplets are not checked again.
    """
    active = triplets if triplets is not None else scene.gt_triplets
    roster = scene.categories
    counts = _confusion(pred, scene.gt_labels, len(roster))
    ious, mean_iou, mean_recall = _scores(counts, len(roster))
    if flags is None:
        flags = satisfied_flags(pred, roster, active)
    elif len(flags) != len(active):
        raise ValueError(f"{len(flags)} satisfaction flags for {len(active)} triplets")
    return EvalReport(
        scene=name if name is not None else "",
        miou=mean_iou,
        macc=mean_recall,
        constraint_satisfaction=_satisfied_share(flags),
        per_class_iou={roster[c]: value for c, value in ious.items()},
        category_count=int((counts[1:].sum(axis=1) > 0).sum()),
        constraint_count=len(active),
    )


@dataclass(frozen=True)
class BucketDelta:
    bucket: str
    scenes: int
    baseline_miou: float
    refined_miou: float

    @property
    def delta(self) -> float:
        return self.refined_miou - self.baseline_miou


def compare_runs(
    baseline: Sequence[EvalReport],
    refined: Sequence[EvalReport],
    group_by: GroupBy = "categories",
) -> list[BucketDelta]:
    """Per-bucket mean mIoU of two runs over the same scene set.

    Reports are aligned by scene name and bucketed by the baseline run's
    category count, the one grouping; buckets with no scenes simply do not
    appear.
    """
    if group_by != "categories":
        raise FormatError(f"unknown grouping {group_by!r}")
    base_by_scene = {r.scene: r for r in baseline}
    ref_by_scene = {r.scene: r for r in refined}
    if len(base_by_scene) != len(baseline) or len(ref_by_scene) != len(refined):
        raise SceneSetMismatchError("duplicate scene names in a run")
    if set(base_by_scene) != set(ref_by_scene):
        missing = sorted(set(base_by_scene) ^ set(ref_by_scene))
        raise SceneSetMismatchError(f"runs cover different scenes, e.g. {missing[:5]}")

    groups: dict[int, list[tuple[EvalReport, EvalReport]]] = {}
    for scene_name in sorted(base_by_scene):
        base = base_by_scene[scene_name]
        groups.setdefault(base.category_count, []).append((base, ref_by_scene[scene_name]))

    deltas = []
    for count in sorted(groups):
        pairs = groups[count]
        deltas.append(
            BucketDelta(
                bucket=str(count),
                scenes=len(pairs),
                baseline_miou=sum(b.miou for b, _ in pairs) / len(pairs),
                refined_miou=sum(r.miou for _, r in pairs) / len(pairs),
            )
        )
    return deltas


def write_bucket_csv(path: str | Path, deltas: Sequence[BucketDelta]) -> None:
    with writing_to(path), open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["bucket", "scenes", "baseline_miou", "refined_miou", "delta"])
        for d in deltas:
            writer.writerow([d.bucket, d.scenes, repr(d.baseline_miou), repr(d.refined_miou), repr(d.delta)])
