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

A half plane depends on one coordinate only, so the compiled form is a 1-D
band along the relation's axis. The per-triplet H x W form that the tests
compare this kernel against lives in tests/reference_kernels.py.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .errors import UnknownCategoryError
from .grid import DEFAULT_EPSILON
from .relations import Relation, SpatialTriplet, TripletSet
from .state import SegmentationState

_RELATIONS = tuple(Relation)

#: Floor of 1 - P inside the penalty's log: bounds a fully violating pixel's
#: loss at -log(1e-7), about 16.1, away from the singularity at P = 1.
LOG_CLAMP = 1e-7
#: The weight gate sigma(GATE_SCALE * (M - GATE_BIAS)) leans each constraint
#: weight toward the object's confidently predicted pixels. On maps in [0, 1]
#: its exponent lies in [-3, 7], so exp() cannot overflow.
GATE_BIAS = 0.7
GATE_SCALE = 10.0


def outside_band(length: int, relation: Relation, mean_coord: float) -> np.ndarray:
    """1 at each row or column the subject must avoid. Right/below keep
    coords >= mean and left/above coords <= mean, so a tie is on both sides."""
    coords = np.arange(length)
    return (coords < mean_coord if relation.after else coords > mean_coord).astype(np.float64)


def encode_triplets(
    roster: Sequence[str], triplets: Iterable[SpatialTriplet]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(subjects, relations, objects) of the triplets as (T,) index arrays:
    names index `roster` and relations index tuple(Relation), the codes
    outside_bands reads. A name outside the roster raises UnknownCategoryError."""
    index = {name: i for i, name in enumerate(roster)}
    try:
        codes = [(index[t.subject], _RELATIONS.index(t.relation), index[t.object]) for t in triplets]
    except KeyError as exc:
        raise UnknownCategoryError(f"category {exc.args[0]!r} is not in roster {list(roster)}") from None
    return tuple(np.array(codes, dtype=np.intp).reshape(-1, 3).T)


def outside_bands(
    maps: np.ndarray, relations: np.ndarray, objects: np.ndarray, epsilon: float
) -> tuple[np.ndarray, np.ndarray]:
    """Outside bands of T triplets against the (C, H, W) `maps`: rows (T, H)
    and cols (T, W), all 0 on the axis a relation does not use.

    `relations` index tuple(Relation) and `objects` index the maps. Each
    object's mean is its mass-weighted coordinate (sum coord*M) / (sum M + eps)
    along the relation's axis, 0 for a map with no mass.
    """
    means, bands = {}, {}
    for axis, marginals in (("row", maps.sum(axis=2)), ("col", maps.sum(axis=1))):
        mass = marginals.sum(axis=1)
        sums = marginals @ np.arange(marginals.shape[1])
        means[axis] = np.divide(sums, mass + epsilon, out=np.zeros_like(mass), where=mass != 0.0)
        bands[axis] = np.zeros((len(objects), marginals.shape[1]))
    for code, relation in enumerate(_RELATIONS):
        picked = relations == code
        band = bands[relation.axis]
        band[picked] = outside_band(band.shape[1], relation, means[relation.axis][objects[picked], None])
    return bands["row"], bands["col"]


def outside_sums(field: np.ndarray, subjects: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Each triplet's sum of the (C, H, W) `field` over its subject's map
    outside the bands: the (T, H) `rows` and (T, W) `cols` dotted with that
    map's row and column sums."""
    return (rows * field.sum(axis=2)[subjects]).sum(axis=1) + (cols * field.sum(axis=1)[subjects]).sum(axis=1)


def fuzzy_implication(p, q):
    """Product-logic implication P -> Q = 1 - P*(1-Q), elementwise on arrays."""
    return 1.0 - p * (1.0 - q)


@dataclass(frozen=True, eq=False)
class ConstraintTerms:
    """Triplets compiled against the current maps, one row per triplet, in
    the order they were given.

    `rows` (T, H) and `cols` (T, W) are the outside bands, 1 where the subject
    must not be and all 0 on the axis the relation does not use. `subjects`
    index the state's categories; `losses` is None until the loss has run.
    """

    subjects: np.ndarray
    weights: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    losses: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.subjects)


def compile_constraints(state: SegmentationState, triplets: TripletSet | Sequence[SpatialTriplet]) -> ConstraintTerms:
    """Freeze each triplet's band and weight against the current object maps,
    reducing every category's map at once. A weight is the object map's
    sigmoid-gated mean sum(M*s) / (sum s + eps) with s = sigma(GATE_SCALE*(M - GATE_BIAS)),
    which leans on confidently predicted pixels and is 0 for an empty map."""
    probs = state.probs
    subjects, relations, objects = encode_triplets(state.categories, triplets)
    gate = 1.0 / (1.0 + np.exp(-GATE_SCALE * (probs - GATE_BIAS)))
    weights = (probs * gate).sum(axis=(1, 2)) / (gate.sum(axis=(1, 2)) + DEFAULT_EPSILON)
    rows, cols = outside_bands(probs, relations, objects, DEFAULT_EPSILON)
    return ConstraintTerms(subjects, weights[objects], rows, cols)


def compiled_spatial_loss(state: SegmentationState, compiled: ConstraintTerms) -> tuple[float, ConstraintTerms]:
    """Evaluate frozen constraints against the state's current subject maps.

    Inside pixels cost log 1 = 0, so each loss is the outside sum of the
    penalty -log max(1 - P, LOG_CLAMP). Returns the weighted total and `compiled`
    with its losses filled in.
    """
    penalty = -np.log(np.maximum(1.0 - state.probs, LOG_CLAMP))
    losses = outside_sums(penalty, compiled.subjects, compiled.rows, compiled.cols)
    return float(compiled.weights @ losses), replace(compiled, losses=losses)


def spatial_loss(
    state: SegmentationState, triplets: TripletSet | Sequence[SpatialTriplet]
) -> tuple[float, ConstraintTerms]:
    """Weighted sum of per-triplet losses: masks from each object's current
    map, loss from the subject's map, weight from the object's map.

    The sum is unnormalized and follows triplet order, so results are
    bit-reproducible.
    """
    return compiled_spatial_loss(state, compile_constraints(state, triplets))


def logit_gradient_from_terms(state: SegmentationState, terms: ConstraintTerms) -> np.ndarray:
    """Chain the weighted per-map gradients through the pixelwise softmax.

    With R, K the weighted bands summed per subject along rows and columns,
    the map gradient is g = (R + K) / (1 - P), 0 where the clamp saturates,
    and d(total)/d(z_k) = p_k * (g_k - sum_c g_c * p_c) at every pixel.
    """
    scatter = np.zeros((len(state.probs), len(terms)))
    scatter[terms.subjects, np.arange(len(terms))] = terms.weights
    inner = np.maximum(1.0 - state.probs, LOG_CLAMP)
    g = ((scatter @ terms.rows)[:, :, None] + (scatter @ terms.cols)[:, None, :]) / inner
    g[inner == LOG_CLAMP] = 0.0
    dot = (g * state.probs).sum(axis=0, keepdims=True)
    return state.probs * (g - dot)
