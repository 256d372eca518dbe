"""Compile spatial triplets into a differentiable fuzzy-logic loss.

Each triplet <subject, r, object> becomes the rule "every subject pixel lies
in the half-plane on the r side of the object's mean coordinate". Under
product fuzzy logic the implication P -> Q relaxes to 1 - P*(1-Q) and the
universal quantifier to a product over pixels, so the negative log of that
product is a sum of per-pixel penalties charged wherever subject probability
sits outside the half-plane.

The half-plane masks and the per-constraint weights are held constant by the
gradient, for two different reasons. A mask is piecewise constant in the
anchor map, so its derivative is zero almost everywhere. A weight is smooth
in its object's map, so holding it is a choice: a stop-gradient. Gradients
thus flow only through the subject map.

A half plane depends on one coordinate only, so the compiled form is a 1-D
band along the relation's axis, one table per axis with a row per (object,
relation) pair, however many triplets read it. The per-triplet H x W form
that the tests compare this kernel against lives in tests/reference_kernels.py.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import UnknownCategoryError
from .grid import DEFAULT_EPSILON, mean_coordinates
from .relations import RELATION_CODES, Relation, TripletSet
from .state import SegmentationState

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


def encode_triplets(roster: Sequence[str], triplets: TripletSet) -> tuple[np.ndarray, np.ndarray]:
    """(subjects, keys) of the triplets as (T,) index arrays: the set's code
    arrays remapped onto `roster`. A subject indexes `roster`, and a key
    4*object + code indexes the rows of band_tables, with `code` indexing
    tuple(Relation). The first name outside `roster` that a triplet reads,
    in set order and subject before object, raises UnknownCategoryError; the
    set's roster may hold other names that no triplet reads."""
    index = {name: i for i, name in enumerate(roster)}
    positions = [index.get(name, -1) for name in triplets.categories]
    remap = np.array(positions, dtype=np.intp)
    subjects, relations, objects, _ = triplets.codes
    if -1 in positions:
        read = np.stack((subjects, objects), axis=1).ravel()
        unknown = read[remap[read] < 0]
        if len(unknown):
            name = triplets.categories[unknown[0]]
            raise UnknownCategoryError(f"category {name!r} is not in roster {list(roster)}")
    return remap[subjects], len(RELATION_CODES) * remap[objects] + relations


def band_tables(maps: np.ndarray, epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """Outside bands of every (object, relation) pair of the (C, H, W) `maps`:
    rows (4C, H) and cols (4C, W), row 4*object + code for tuple(Relation)[code],
    all 0 on the axis the relation does not use. Each object's mean is the
    `mean_coordinates` of its marginal along the axis."""
    tables = {}
    for axis, marginals in (("row", maps.sum(axis=2)), ("col", maps.sum(axis=1))):
        means = mean_coordinates(marginals, epsilon)
        table = np.zeros((len(maps), len(RELATION_CODES), marginals.shape[1]))
        for relation, code in RELATION_CODES.items():
            if relation.axis == axis:
                table[:, code] = outside_band(marginals.shape[1], relation, means[:, None])
        tables[axis] = table.reshape(-1, marginals.shape[1])
    return tables["row"], tables["col"]


def outside_sums(field: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Sums of the (C, H, W) `field` outside every band, as (C, 4C): entry
    [c, key] is map c's row and column sums dotted with the band tables'
    row `key`."""
    return field.sum(axis=2) @ rows.T + field.sum(axis=1) @ cols.T


def fuzzy_implication(p, q):
    """Product-logic implication P -> Q = 1 - P*(1-Q), elementwise on arrays."""
    return 1.0 - p * (1.0 - q)


@dataclass(frozen=True, eq=False)
class ConstraintTerms:
    """Triplets compiled against the current maps, in the order given.

    `subjects` index the state's categories and `keys` the rows of the band
    tables `rows` (4C, H) and `cols` (4C, W), 1 where a subject must not be;
    `weights` hold each triplet's weight. `losses` is None until the loss has run.
    """

    subjects: np.ndarray
    keys: np.ndarray
    weights: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    losses: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.subjects)


def compile_constraints(state: SegmentationState, subjects: np.ndarray, keys: np.ndarray) -> ConstraintTerms:
    """Freeze the band tables and each encoded triplet's weight against the
    current maps, reducing every category's map at once. A weight is the object map's
    sigmoid-gated mean sum(M*s) / (sum s + eps) with s = sigma(GATE_SCALE*(M - GATE_BIAS)),
    which leans on confidently predicted pixels and is 0 for an empty map.
    The gradient holds both constant: a band because its threshold is piecewise
    constant, a weight by choice, as a stop-gradient, though it is smooth in its
    object's map."""
    probs = state.probs
    gate = 1.0 / (1.0 + np.exp(-GATE_SCALE * (probs - GATE_BIAS)))
    weights = (probs * gate).sum(axis=(1, 2)) / (gate.sum(axis=(1, 2)) + DEFAULT_EPSILON)
    rows, cols = band_tables(probs, DEFAULT_EPSILON)
    return ConstraintTerms(subjects, keys, weights[keys // len(RELATION_CODES)], rows, cols)


def compiled_spatial_loss(state: SegmentationState, compiled: ConstraintTerms) -> tuple[float, ConstraintTerms]:
    """Evaluate frozen constraints against the state's current subject maps.

    Inside pixels cost log 1 = 0, so each loss is the outside sum of the
    penalty -log max(1 - P, LOG_CLAMP). Returns the weighted total and `compiled`
    with its losses filled in. The total sums W * outside sums over the
    (C, 4C) cells of `weight_matrix`, in cell order, so it does not depend
    on the order of the triplets.
    """
    penalty = -np.log(np.maximum(1.0 - state.probs, LOG_CLAMP))
    sums = outside_sums(penalty, compiled.rows, compiled.cols)
    total = (weight_matrix(len(state.probs), compiled) * sums).sum()
    return float(total), replace(compiled, losses=sums[compiled.subjects, compiled.keys])


def spatial_loss(state: SegmentationState, triplets: TripletSet) -> tuple[float, ConstraintTerms]:
    """Weighted sum of per-triplet losses: masks from each object's current
    map, loss from the subject's map, weight from the object's map.

    The sum is unnormalized and runs over fixed cells, so results are
    bit-reproducible and the same in any triplet order.
    """
    return compiled_spatial_loss(state, compile_constraints(state, *encode_triplets(state.categories, triplets)))


def weight_matrix(categories: int, terms: ConstraintTerms) -> np.ndarray:
    """W (C, 4C): each triplet's weight at its [subject, key]. A set holds
    each triplet once, so each cell holds at most one weight."""
    pairs = len(terms.rows)
    return np.bincount(terms.subjects * pairs + terms.keys, terms.weights, categories * pairs).reshape(-1, pairs)


def logit_gradient_from_terms(state: SegmentationState, terms: ConstraintTerms) -> np.ndarray:
    """Chain the weighted per-map gradients through the pixelwise softmax.

    With W = weight_matrix, R = W @ rows and K = W @ cols, the map gradient
    is g = (R + K) / (1 - P), 0 where the clamp saturates, and
    d(total)/d(z_k) = p_k * (g_k - sum_c g_c * p_c) at every pixel.
    """
    weights = weight_matrix(len(state.probs), terms)
    inner = np.maximum(1.0 - state.probs, LOG_CLAMP)
    g = ((weights @ terms.rows)[:, :, None] + (weights @ terms.cols)[:, None, :]) / inner
    g[inner == LOG_CLAMP] = 0.0
    dot = (g * state.probs).sum(axis=0, keepdims=True)
    return state.probs * (g - dot)
