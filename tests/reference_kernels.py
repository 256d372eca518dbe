"""Per-triplet H x W reference of the constraint loss, for the tests.

relfine.logic compiles all triplets at once into 1-D bands over the stacked
(C, H, W) maps. This module computes the same quantities the slow, readable
way, one triplet and one full H x W mask at a time, and shares no code with
the compiled kernel: the masks come from this module's own comparisons of a
coordinate grid against the anchor's mean, and only the loss constants are
taken from relfine.logic. Tests compare the two implementations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from relfine.errors import FormatError
from relfine.grid import DEFAULT_EPSILON, ProbabilityMap
from relfine.logic import GATE_BIAS, GATE_SCALE, LOG_CLAMP
from relfine.relations import Relation
from relfine.state import SegmentationState


@dataclass(frozen=True, eq=False)
class PseudoMask:
    """Binary half-plane region adjacent to an anchor category.

    A pixel at the exact mean coordinate belongs to both opposing masks
    (right uses >=, left <=, and likewise below/above), so no pixel is ever
    in neither region.
    """

    anchor: str
    relation: Relation
    mask: np.ndarray
    mean_coord: float


def prob_map(state: SegmentationState, category: str) -> ProbabilityMap:
    """The state's probability map of one category."""
    return ProbabilityMap(state.probs[state.categories.index(category)])


def weighted_mean_coordinate(pmap: ProbabilityMap, axis: str, epsilon: float = DEFAULT_EPSILON) -> float:
    """Mass-weighted mean row or column of a map: (sum coord*M) / (sum M + eps).

    A zero-mass map yields 0 so empty anchors degrade gracefully; their
    constraint weight vanishes downstream anyway.
    """
    if epsilon < 0:
        raise FormatError(f"epsilon must be nonnegative, got {epsilon}")
    marginal = pmap.values.sum(axis=1 if axis == "row" else 0)
    mass = float(marginal.sum())
    if mass == 0.0:
        return 0.0
    return float(marginal @ np.arange(marginal.size) / (mass + epsilon))


def pseudo_mask(
    anchor_map: ProbabilityMap,
    relation: Relation,
    epsilon: float = DEFAULT_EPSILON,
    anchor: str = "",
) -> PseudoMask:
    """Threshold the relation's coordinate grid at the anchor map's mean.

    An empty anchor keeps its mean at 0, so right/below masks cover the whole
    grid and left/above collapse to the first column/row; the constraint
    weight of such an anchor is ~0 downstream, making this harmless.
    """
    mean = weighted_mean_coordinate(anchor_map, relation.axis, epsilon)
    rows, cols = np.indices(anchor_map.shape)
    coords = rows if relation.axis == "row" else cols
    inside = coords >= mean if relation in (Relation.RIGHT, Relation.BELOW) else coords <= mean
    return PseudoMask(anchor=anchor, relation=relation, mask=inside.astype(np.float64), mean_coord=mean)


def constraint_loss(subject_map: ProbabilityMap, pmask: PseudoMask) -> tuple[float, np.ndarray]:
    """Negative log of the per-pixel implication product, plus its gradient.

    loss = -sum log(max(1 - M*(1-mask), clamp)); the gradient with respect to
    the subject map is (1-mask)/inner where the clamp is inactive and 0 where
    it saturates.
    """
    if subject_map.shape != pmask.mask.shape:
        raise FormatError(
            f"subject map shape {subject_map.shape} != pseudo mask shape {pmask.mask.shape}"
        )
    outside = 1.0 - pmask.mask
    inner = 1.0 - subject_map.values * outside
    clamped = np.maximum(inner, LOG_CLAMP)
    loss = float(-np.log(clamped).sum())
    grad = np.where(inner > LOG_CLAMP, outside / clamped, 0.0)
    return loss, grad


def constraint_weight(anchor_map: ProbabilityMap) -> float:
    """Sigmoid-gated mean of the anchor map's scores, in [0, 1).

    Scores pass through sigma(scale*(v - bias)) so the mean concentrates on
    confidently predicted pixels; an all-zero anchor weighs nothing.
    """
    values = anchor_map.values
    gate = 1.0 / (1.0 + np.exp(-GATE_SCALE * (values - GATE_BIAS)))
    return float((values * gate).sum() / (gate.sum() + DEFAULT_EPSILON))
