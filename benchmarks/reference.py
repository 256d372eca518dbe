"""Reference implementations the benchmark checks relfine's outputs against.

They are written from the documented behaviour, not from relfine's code
path, and they import nothing from relfine:

- calibration: dictionary lookups instead of relfine's pair scan; the
  results are discrete, so they must match relfine exactly;
- refinement: the closed form of the constraint gradient, which depends on
  one row sum and one column sum per subject instead of one H x W term per
  triplet; it sums in another order, so refined maps, mIoU and constraint
  satisfaction are compared within tolerances;
- metrics: mIoU from one confusion matrix and the discrete satisfaction
  test from the one-hot object mean;
- file formats: readers for the RSGF1 grids and P5 label maps relfine
  writes.
"""

from __future__ import annotations

import re
import struct
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

OPPOSITE = {"above": "below", "below": "above", "left": "right", "right": "left"}
RELATIONS = ("above", "below", "left", "right")
BACKGROUND = "background"

#: Refined maps may differ from the reference by at most PROB_TOLERANCE per
#: pixel, and their mIoU and constraint satisfaction by the other two. Both
#: implementations run the same float64 arithmetic in another order and
#: agree to ~1e-12; the maps relfine writes are float32 (~6e-8 resolution).
#: Changing a loss constant by 1 % moves the maps by ~1e-3.
PROB_TOLERANCE = 1e-6
MIOU_TOLERANCE = 1e-9
SATISFACTION_TOLERANCE = 0.0

Triplet = tuple[str, str, str]


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------


def read_rsgf(path: Path) -> np.ndarray:
    raw = path.read_bytes()
    if raw[:5] != b"RSGF1":
        raise ValueError(f"{path}: not an RSGF1 grid")
    height, width = struct.unpack("<II", raw[5:13])
    return np.frombuffer(raw, dtype="<f4", offset=13).reshape(height, width).astype(np.float64)


def read_pgm(path: Path) -> np.ndarray:
    raw = path.read_bytes()
    header = re.match(rb"P5\s+(\d+)\s+(\d+)\s+255\s", raw)
    if header is None:
        raise ValueError(f"{path}: not an 8-bit P5 PGM")
    width, height = int(header[1]), int(header[2])
    data = np.frombuffer(raw, dtype=np.uint8, offset=header.end())
    return data.reshape(height, width).astype(np.int64)


# ---------------------------------------------------------------------------
# Scenes
# ---------------------------------------------------------------------------


def paint_labels(spec: dict, roster: Sequence[str]) -> np.ndarray:
    """The ground-truth label map: rectangles painted in placement order."""
    labels = np.zeros((spec["height"], spec["width"]), dtype=np.int64)
    for p in spec["placements"]:
        labels[p["row0"] : p["row1"], p["col0"] : p["col1"]] = roster.index(p["category"])
    return labels


def centroids(spec: dict) -> dict[str, tuple[float, float]]:
    """(row, col) centroid of each placed rectangle, from its bounds."""
    return {
        p["category"]: ((p["row0"] + p["row1"] - 1) / 2, (p["col0"] + p["col1"] - 1) / 2)
        for p in spec["placements"]
    }


def holds_geometric(where: dict[str, tuple[float, float]], s: str, r: str, o: str) -> bool:
    if s not in where or o not in where:
        return False
    (s_row, s_col), (o_row, o_col) = where[s], where[o]
    return {
        "above": s_row < o_row,
        "below": s_row > o_row,
        "left": s_col < o_col,
        "right": s_col > o_col,
    }[r]


def geometric_answers(where: dict[str, tuple[float, float]]) -> tuple[Callable, Callable]:
    """holds/choose answer functions for an oracle reading centroid geometry."""

    def holds(s: str, r: str, o: str) -> str:
        return "yes" if holds_geometric(where, s, r, o) else "no"

    def choose(s: str, first: str, second: str, o: str) -> str:
        if holds_geometric(where, s, first, o):
            return "first"
        if holds_geometric(where, s, second, o):
            return "second"
        return "neither"

    return holds, choose


def gt_triplets(spec: dict, roster: Sequence[str]) -> list[Triplet]:
    """Every non-background triplet the centroids satisfy, in roster order."""
    where = centroids(spec)
    return [
        (s, r, o)
        for s in roster
        for o in roster
        if s != o and BACKGROUND not in (s, o)
        for r in RELATIONS
        if holds_geometric(where, s, r, o)
    ]


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------


def contradiction_pairs(items: Sequence[Triplet]) -> list[tuple[Triplet, Triplet]]:
    """Cyclic (<a,r,b>, <b,r,a>) and directional (<a,r,b>, <a,opp r,b>)
    pairs, ordered by the positions of their members."""
    index = {t: i for i, t in enumerate(items)}
    found = []
    for j, (s, r, o) in enumerate(items):
        for partner in ((o, r, s), (s, OPPOSITE[r], o)):
            i = index.get(partner)
            if i is not None and i < j:
                found.append((i, j))
    return [(items[i], items[j]) for i, j in sorted(found)]


def calibrate(
    triplets: Sequence[Triplet],
    holds: Callable[[str, str, str], str],
    choose: Callable[[str, str, str, str], str],
    drop_background: bool = True,
) -> tuple[list[tuple[str, str, str, str]], dict[str, int]]:
    """Calibrated (subject, relation, object, stage) list and audit counts."""
    work = [t for t in triplets if not (drop_background and BACKGROUND in (t[0], t[2]))]
    augmented = list(work)
    present = set(work)
    for s, r, o in work:
        reverse = (o, OPPOSITE[r], s)
        if reverse not in present:
            present.add(reverse)
            augmented.append(reverse)
    validated = [
        (s, r, o) for s, r, o in augmented if holds(s, r, o) == "yes" and holds(o, OPPOSITE[r], s) == "yes"
    ]
    pairs = contradiction_pairs(validated)
    dropped: set[Triplet] = set()
    chosen: set[Triplet] = set()
    for first, second in pairs:
        answer = choose(first[0], first[1], OPPOSITE[first[1]], first[2])
        if answer == "first":
            chosen.add(first)
            dropped.add(second)
        elif answer == "second":
            chosen.add(second)
            dropped.add(first)
        else:
            dropped.update((first, second))
    kept = [t for t in validated if t not in dropped]
    stale = {t for pair in contradiction_pairs(kept) for t in pair}
    kept = [t for t in kept if t not in stale]
    final = [(*t, "resolved" if t in chosen else "validated") for t in kept]
    audit = {
        "initial": len(triplets),
        "background_dropped": len(triplets) - len(work),
        "augmented": len(augmented),
        "validated": len(validated),
        "contradiction_pairs": len(pairs),
        "resolution_dropped": len(validated) - len(final),
        "final": len(final),
    }
    return final, audit


# ---------------------------------------------------------------------------
# Refinement
# ---------------------------------------------------------------------------


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=0, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=0, keepdims=True)


def _spatial_gradient(
    probs: np.ndarray,
    triplets: Sequence[tuple[int, str, int]],
    epsilon: float,
    log_clamp: float,
    sigmoid_bias: float,
    sigmoid_scale: float,
) -> np.ndarray:
    """Logit gradient of the weighted constraint loss.

    A triplet penalises subject mass outside the half-plane on its side of
    the object's weighted mean; the half-plane depends on one coordinate,
    so the subject's pixel gradient is 1/(1-p) times the summed weights of
    the triplets whose outside region holds that pixel's row or column.
    """
    n_cat, height, width = probs.shape
    rows = np.arange(height, dtype=np.float64)
    cols = np.arange(width, dtype=np.float64)
    mass = probs.sum(axis=(1, 2))
    safe = np.where(mass > 0.0, mass + epsilon, 1.0)
    row_mean = np.where(mass > 0.0, probs.sum(axis=2) @ rows / safe, 0.0)
    col_mean = np.where(mass > 0.0, probs.sum(axis=1) @ cols / safe, 0.0)
    gate = 1.0 / (1.0 + np.exp(-sigmoid_scale * (probs - sigmoid_bias)))
    weight = (probs * gate).sum(axis=(1, 2)) / (gate.sum(axis=(1, 2)) + epsilon)

    row_weight = np.zeros((n_cat, height))
    col_weight = np.zeros((n_cat, width))
    for s, relation, o in triplets:
        if relation == "right":
            col_weight[s] += weight[o] * (cols < col_mean[o])
        elif relation == "left":
            col_weight[s] += weight[o] * (cols > col_mean[o])
        elif relation == "below":
            row_weight[s] += weight[o] * (rows < row_mean[o])
        else:
            row_weight[s] += weight[o] * (rows > row_mean[o])
    inside = 1.0 - probs
    per_pixel = np.where(inside > log_clamp, 1.0 / np.maximum(inside, log_clamp), 0.0)
    g = per_pixel * (row_weight[:, :, None] + col_weight[:, None, :])
    return probs * (g - (g * probs).sum(axis=0, keepdims=True))


def refine_maps(
    init: np.ndarray,
    triplets: Sequence[tuple[int, str, int]],
    alpha: float = 0.1,
    steps: int = 15,
    learning_rate: float = 0.01,
    beta1: float = 0.9,
    beta2: float = 0.999,
    adam_eps: float = 1e-8,
    epsilon: float = 1e-6,
    log_clamp: float = 1e-7,
    sigmoid_bias: float = 0.7,
    sigmoid_scale: float = 10.0,
    prob_floor: float = 1e-7,
) -> np.ndarray:
    """(C, H, W) maps after refining them with Adam on their logits.

    Defaults are relfine's documented defaults. The objective is the
    cross-entropy to the initial softmax plus alpha times the constraint
    loss, whose masks and weights are recomputed from the maps every step.
    """
    logits = np.log(np.clip(init, prob_floor, 1.0))
    probs = _softmax(logits)
    target = probs.copy()
    m = np.zeros_like(logits)
    v = np.zeros_like(logits)
    for t in range(1, steps + 1):
        grad = probs - target
        if alpha != 0.0:
            grad = grad + alpha * _spatial_gradient(
                probs, triplets, epsilon, log_clamp, sigmoid_bias, sigmoid_scale
            )
        m = beta1 * m + (1.0 - beta1) * grad
        v = beta2 * v + (1.0 - beta2) * grad**2
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        logits = logits - learning_rate * m_hat / (np.sqrt(v_hat) + adam_eps)
        probs = _softmax(logits)
    return probs


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def miou(pred: np.ndarray, gt: np.ndarray, n_cat: int) -> float:
    """Mean IoU over categories present in the prediction or ground truth."""
    confusion = np.bincount(gt.ravel() * n_cat + pred.ravel(), minlength=n_cat * n_cat)
    confusion = confusion.reshape(n_cat, n_cat)
    inter = np.diag(confusion)
    union = confusion.sum(axis=0) + confusion.sum(axis=1) - inter
    present = union > 0
    return float((inter[present] / union[present]).mean()) if present.any() else 0.0


def satisfaction(
    pred: np.ndarray, triplets: Sequence[tuple[int, str, int]], threshold: float = 0.95
) -> float:
    """Share of triplets whose subject pixels lie, to at least `threshold`,
    on the relation's side of the object's one-hot mean (inclusive)."""
    if not triplets:
        return 1.0
    coords = {"row": np.indices(pred.shape)[0], "col": np.indices(pred.shape)[1]}
    satisfied = 0
    for s, relation, o in triplets:
        subject = pred == s
        count = int(subject.sum())
        if count == 0:
            satisfied += 1
            continue
        grid = coords["row" if relation in ("above", "below") else "col"]
        obj = pred == o
        mass = int(obj.sum())
        mean = float(grid[obj].sum()) / mass if mass else 0.0
        region = grid >= mean if relation in ("right", "below") else grid <= mean
        satisfied += int((subject & region).sum()) / count >= threshold
    return satisfied / len(triplets)
