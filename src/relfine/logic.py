"""Compile spatial triplets into a differentiable fuzzy-logic loss.

Each triplet <subject, r, object> becomes the rule "every subject pixel lies
in the half-plane on the r side of the object's mean coordinate". Under
product fuzzy logic the implication P -> Q relaxes to 1 - P*(1-Q) and the
universal quantifier to a product over pixels, so the negative log of that
product is a sum of per-pixel penalties charged wherever subject probability
sits outside the half-plane.

The half-plane masks and the per-constraint weights are treated as constants
of the current maps: the mask is piecewise constant in the anchor map (its
derivative is zero almost everywhere), so gradients flow only through the
subject map.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .errors import FormatError, require_real
from .grid import DEFAULT_EPSILON, ProbabilityMap, coordinate_maps, weighted_mean_coordinate
from .relations import Relation, SpatialTriplet, TripletSet
from .state import SegmentationState

Reduction = Literal["sum", "mean"]


@dataclass(frozen=True)
class SpatialLossConfig:
    """Hyperparameters of the constraint loss.

    epsilon guards the weighted-mean denominators; log_clamp bounds the loss
    away from the log singularity at full violation; sigmoid bias/scale gate
    the constraint weights toward confidently predicted anchors; reduction
    picks between the raw per-pixel sum and its mean.
    """

    epsilon: float = DEFAULT_EPSILON
    log_clamp: float = 1e-7
    sigmoid_bias: float = 0.7
    sigmoid_scale: float = 10.0
    reduction: Reduction = "sum"

    def __post_init__(self) -> None:
        for name in ("epsilon", "log_clamp", "sigmoid_bias", "sigmoid_scale"):
            require_real(getattr(self, name), name)
        if self.epsilon <= 0 or self.log_clamp <= 0 or self.sigmoid_scale <= 0:
            raise FormatError("epsilon, log_clamp and sigmoid_scale must be positive")
        if not 0.0 < self.sigmoid_bias < 1.0:
            raise FormatError(f"sigmoid_bias must lie in (0, 1), got {self.sigmoid_bias}")
        if self.reduction not in ("sum", "mean"):
            raise FormatError(f"reduction must be 'sum' or 'mean', got {self.reduction!r}")


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


def half_plane_mask(height: int, width: int, relation: Relation, mean_coord: float) -> np.ndarray:
    """Binary grid selecting the relation's side of a mean coordinate."""
    coords = coordinate_maps(height, width)
    grid = coords.row_map if relation.axis == "row" else coords.col_map
    if relation in (Relation.RIGHT, Relation.BELOW):
        mask = grid >= mean_coord
    else:
        mask = grid <= mean_coord
    return mask.astype(np.float64)


def pseudo_mask(
    anchor_map: ProbabilityMap,
    relation: Relation,
    cfg: SpatialLossConfig | None = None,
    anchor: str = "",
) -> PseudoMask:
    """Threshold the relation's coordinate grid at the anchor map's mean.

    An empty anchor keeps its mean at 0, so right/below masks cover the whole
    grid and left/above collapse to the first column/row; the constraint
    weight of such an anchor is ~0 downstream, making this harmless.
    """
    cfg = cfg or SpatialLossConfig()
    mean = weighted_mean_coordinate(anchor_map, relation.axis, cfg.epsilon)
    mask = half_plane_mask(anchor_map.height, anchor_map.width, relation, mean)
    return PseudoMask(anchor=anchor, relation=relation, mask=mask, mean_coord=mean)


def fuzzy_implication(p, q):
    """Product-logic implication P -> Q = 1 - P*(1-Q), elementwise on arrays."""
    return 1.0 - p * (1.0 - q)


def constraint_loss(
    subject_map: ProbabilityMap,
    pmask: PseudoMask,
    cfg: SpatialLossConfig | None = None,
) -> tuple[float, np.ndarray]:
    """Negative log of the per-pixel implication product, plus its gradient.

    loss = -sum log(max(1 - M*(1-mask), clamp)); the gradient with respect to
    the subject map is (1-mask)/inner where the clamp is inactive and 0 where
    it saturates. reduction="mean" divides both by the pixel count.
    """
    cfg = cfg or SpatialLossConfig()
    if subject_map.shape != pmask.mask.shape:
        raise FormatError(
            f"subject map shape {subject_map.shape} != pseudo mask shape {pmask.mask.shape}"
        )
    outside = 1.0 - pmask.mask
    inner = 1.0 - subject_map.values * outside
    clamped = np.maximum(inner, cfg.log_clamp)
    loss = float(-np.log(clamped).sum())
    grad = np.where(inner > cfg.log_clamp, outside / clamped, 0.0)
    if cfg.reduction == "mean":
        pixels = subject_map.values.size
        return loss / pixels, grad / pixels
    return loss, grad


def constraint_weight(anchor_map: ProbabilityMap, cfg: SpatialLossConfig | None = None) -> float:
    """Sigmoid-gated mean of the anchor map's scores, in [0, 1).

    Scores pass through sigma(scale*(v - bias)) so the mean concentrates on
    confidently predicted pixels; an all-zero anchor weighs nothing.
    """
    cfg = cfg or SpatialLossConfig()
    values = anchor_map.values
    gate = 1.0 / (1.0 + np.exp(-cfg.sigmoid_scale * (values - cfg.sigmoid_bias)))
    return float((values * gate).sum() / (gate.sum() + cfg.epsilon))


@dataclass(frozen=True, eq=False)
class ConstraintTerm:
    """Diagnostics for one compiled triplet: loss, weight, subject-map gradient."""

    triplet: SpatialTriplet
    loss: float
    weight: float
    per_pixel_grad: np.ndarray


@dataclass(frozen=True, eq=False)
class CompiledConstraint:
    """A triplet with its half-plane mask and weight frozen at compile time."""

    triplet: SpatialTriplet
    pseudo: PseudoMask
    weight: float


def compile_constraints(
    state: SegmentationState,
    triplets: TripletSet | Sequence[SpatialTriplet],
    cfg: SpatialLossConfig | None = None,
) -> tuple[CompiledConstraint, ...]:
    """Freeze each triplet's mask and weight against the current object maps."""
    cfg = cfg or SpatialLossConfig()
    compiled = []
    for t in triplets:
        anchor_map = state.prob_map(t.object)
        compiled.append(
            CompiledConstraint(
                triplet=t,
                pseudo=pseudo_mask(anchor_map, t.relation, cfg, anchor=t.object),
                weight=constraint_weight(anchor_map, cfg),
            )
        )
    return tuple(compiled)


def compiled_spatial_loss(
    state: SegmentationState,
    compiled: Sequence[CompiledConstraint],
    cfg: SpatialLossConfig | None = None,
) -> tuple[float, list[ConstraintTerm]]:
    """Evaluate frozen constraints against the state's current subject maps."""
    cfg = cfg or SpatialLossConfig()
    total = 0.0
    terms: list[ConstraintTerm] = []
    for item in compiled:
        subject_map = state.prob_map(item.triplet.subject)
        loss, grad = constraint_loss(subject_map, item.pseudo, cfg)
        total += item.weight * loss
        terms.append(
            ConstraintTerm(triplet=item.triplet, loss=loss, weight=item.weight, per_pixel_grad=grad)
        )
    return total, terms


def spatial_loss(
    state: SegmentationState,
    triplets: TripletSet | Sequence[SpatialTriplet],
    cfg: SpatialLossConfig | None = None,
) -> tuple[float, list[ConstraintTerm]]:
    """Weighted sum of per-triplet losses: masks from each object's current
    map, loss from the subject's map, weight from the object's map.

    The sum is unnormalized and accumulated in triplet order, so results are
    bit-reproducible.
    """
    cfg = cfg or SpatialLossConfig()
    return compiled_spatial_loss(state, compile_constraints(state, triplets, cfg), cfg)


def logit_gradient_from_terms(
    state: SegmentationState, terms: Sequence[ConstraintTerm]
) -> np.ndarray:
    """Chain the weighted per-map gradients through the pixelwise softmax.

    With g_c the summed weighted gradient of all terms whose subject is c,
    d(total)/d(z_k) = p_k * (g_k - sum_c g_c * p_c) at every pixel.
    """
    g = np.zeros_like(state.probs)
    for term in terms:
        g[state.index(term.triplet.subject)] += term.weight * term.per_pixel_grad
    dot = (g * state.probs).sum(axis=0, keepdims=True)
    return state.probs * (g - dot)


def spatial_loss_logit_gradient(
    state: SegmentationState,
    triplets: TripletSet | Sequence[SpatialTriplet],
    cfg: SpatialLossConfig | None = None,
) -> np.ndarray:
    """Analytic gradient of spatial_loss with respect to the state's logits.

    Pseudo masks and constraint weights are held constant: the mask is a
    hard threshold whose derivative vanishes almost everywhere.
    """
    _, terms = spatial_loss(state, triplets, cfg)
    return logit_gradient_from_terms(state, terms)
