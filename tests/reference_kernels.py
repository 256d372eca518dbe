"""Per-triplet H x W reference of the constraint loss, for the tests.

relfine.logic compiles all triplets at once into 1-D bands over the stacked
(C, H, W) maps. This module computes the same quantities the slow, readable
way, one triplet and one full H x W mask at a time, and shares no code with
the compiled kernel: the masks come from this module's own comparisons of a
coordinate grid against the anchor's mean, and only the loss constants are
taken from relfine.logic. Tests compare the two implementations.

`ReferenceOracle` and `reference_gt_triplets` do the same for the geometric
oracle, which relfine reads from one (C, C, 4) table over mass-weighted means:
here each category's centroid is the mean of its pixels' coordinates, and
each question is one comparison.

The `reference_*` calibration stages at the end are the per-object stages
relfine ran before its sets became code arrays: they walk a list of
`SpatialTriplet`s one at a time, look partners up by key, and ask the oracle
both questions of every triplet.

`reference_load_triplets` and `reference_load_scripted_oracle` are the file
loaders relfine had before they tested each entry with one cheap check:
every entry goes through the ordered checks, statements collapse under
tuple keys, and the names map to roster indices in a second pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from relfine.errors import FormatError, UnknownCategoryError, load_json_object, require_keys
from relfine.grid import DEFAULT_EPSILON, LabelMap, ProbabilityMap
from relfine.logic import GATE_BIAS, GATE_SCALE, LOG_CLAMP
from relfine.relations import (
    BACKGROUND,
    RELATION_CODES,
    STAGES,
    Relation,
    SpatialTriplet,
    opposite,
    parse_relation,
)
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


class ReferenceOracle:
    """Geometric oracle answers, one comparison per question.

    A category's centroid is the mean row and column of its pixels. holds(s,
    r, o) is "yes" iff both categories have a pixel and s's centroid lies
    strictly on the r side of o's; a category without pixels, or a name
    outside the roster, holds nothing.
    """

    def __init__(self, labels: LabelMap, roster: tuple[str, ...]):
        self.centroids: dict[str, dict[str, float]] = {}
        for index, name in enumerate(roster):
            rows, cols = np.nonzero(labels.labels == index)
            if rows.size:
                self.centroids[name] = {"row": float(rows.mean()), "col": float(cols.mean())}

    def holds(self, subject: str, relation: Relation, object: str) -> str:
        if subject not in self.centroids or object not in self.centroids:
            return "no"
        s, o = self.centroids[subject][relation.axis], self.centroids[object][relation.axis]
        after = relation in (Relation.RIGHT, Relation.BELOW)
        return "yes" if (s > o if after else s < o) else "no"

    def choose(self, subject: str, first: Relation, second: Relation, object: str) -> str:
        if self.holds(subject, first, object) == "yes":
            return "first"
        if self.holds(subject, second, object) == "yes":
            return "second"
        return "neither"


def reference_gt_triplets(labels: LabelMap, roster: tuple[str, ...]) -> list[SpatialTriplet]:
    """Every triplet the centroids satisfy, background excluded, asked in
    roster order: subject, then object, then relation."""
    oracle = ReferenceOracle(labels, roster)
    return [
        SpatialTriplet(s, r, o)
        for s in roster
        for o in roster
        if s != o and BACKGROUND not in (s, o)
        for r in Relation
        if oracle.holds(s, r, o) == "yes"
    ]


def reference_augment(triplets: list[SpatialTriplet]) -> list[SpatialTriplet]:
    """The triplets, then the reverse of each one whose reverse is new, tagged "bidirectional"."""
    present = {t.key for t in triplets}
    out = list(triplets)
    for t in triplets:
        key = (t.object, opposite(t.relation), t.subject)
        if key not in present:
            present.add(key)
            out.append(SpatialTriplet(*key, "bidirectional"))
    return out


def reference_validate(triplets: list[SpatialTriplet], oracle) -> list[SpatialTriplet]:
    """The triplets whose statement and reverse both hold, tagged "validated";
    the oracle is asked both questions of every triplet, in order."""
    kept = []
    for t in triplets:
        primary = oracle.holds(t.subject, t.relation, t.object)
        reflection = oracle.holds(t.object, opposite(t.relation), t.subject)
        if primary == "yes" and reflection == "yes":
            kept.append(SpatialTriplet(t.subject, t.relation, t.object, "validated"))
    return kept


def reference_detect(triplets: list[SpatialTriplet]) -> list[tuple[int, int, str]]:
    """(i, j, kind) of every contradictory pair i < j, sorted."""
    index = {t.key: i for i, t in enumerate(triplets)}
    found = []
    for i, t in enumerate(triplets):
        s, r, o = t.key
        for key, kind in (((o, r, s), "cyclic"), ((s, opposite(r), o), "directional")):
            j = index.get(key, -1)
            if j > i:
                found.append((i, j, kind))
    return sorted(found)


def reference_resolve(
    triplets: list[SpatialTriplet], pairs: list[tuple[int, int, str]], oracle
) -> list[SpatialTriplet]:
    """Each pair settled by one two-option question from its first member's
    side; a dropped triplet stays dropped, a chosen one is tagged "resolved"."""
    dropped, chosen = set(), set()
    for i, j, _ in pairs:
        first, second = triplets[i], triplets[j]
        answer = oracle.choose(first.subject, first.relation, opposite(first.relation), first.object)
        if answer == "first":
            chosen.add(first.key)
            dropped.add(second.key)
        elif answer == "second":
            chosen.add(second.key)
            dropped.add(first.key)
        else:
            dropped.update((first.key, second.key))
    return [
        SpatialTriplet(*t.key, "resolved") if t.key in chosen else t
        for t in triplets
        if t.key not in dropped
    ]


def reference_calibrate(triplets: list[SpatialTriplet], oracle) -> tuple[list[SpatialTriplet], dict, list]:
    """The calibrated triplets, the audit counts and the contradiction pairs."""
    work = [t for t in triplets if BACKGROUND not in (t.subject, t.object)]
    augmented = reference_augment(work)
    validated = reference_validate(augmented, oracle)
    pairs = reference_detect(validated)
    resolved = reference_resolve(validated, pairs, oracle)
    audit = {
        "initial": len(triplets),
        "background_dropped": len(triplets) - len(work),
        "augmented": len(augmented),
        "validated": len(validated),
        "contradiction_pairs": len(pairs),
        "resolution_dropped": len(validated) - len(resolved),
        "final": len(resolved),
    }
    return resolved, audit, [(validated[i], validated[j], kind) for i, j, kind in pairs]


def _reference_table(doc: dict, name: str, path: str | Path) -> list:
    entries = doc.get(name, [])
    if not isinstance(entries, list):
        raise FormatError(f"{path}: {name!r} must be a list")
    return entries


def _not_a_name(key: str, value: object) -> FormatError:
    return FormatError(f"{key!r} must be a string, got {value!r}")


def reference_load_triplets(path: str | Path) -> tuple[tuple[str, ...], np.ndarray]:
    """The roster and (4, T) codes of a triplet file, or the error, as the
    loader gave them when it checked every entry in order: duplicates
    collapse under (subject, relation, object) keys keeping the earliest
    stage, and a second pass checks the roster and maps the names."""
    doc = load_json_object(path)
    require_keys(doc, frozenset(), frozenset({"categories", "triplets"}), str(path))
    categories = doc.get("categories")
    if not isinstance(categories, list) or not all(isinstance(c, str) for c in categories):
        raise FormatError(f"{path}: 'categories' must be a list of strings")

    allowed = frozenset({"subject", "relation", "object", "stage"})
    collapsed: dict[tuple[str, Relation, str], int] = {}
    for index, entry in enumerate(_reference_table(doc, "triplets", path)):
        try:
            if not isinstance(entry, dict):
                raise FormatError("expected an object")
            if not entry.keys() <= allowed:
                raise FormatError(f"unknown keys {sorted(entry.keys() - allowed)}")
            try:
                subject = entry["subject"]
                relation = parse_relation(entry["relation"])
                obj = entry["object"]
            except KeyError as exc:
                raise FormatError(f"missing key {exc.args[0]!r}") from None
            if not isinstance(subject, str):
                raise _not_a_name("subject", subject)
            if not isinstance(obj, str):
                raise _not_a_name("object", obj)
            stage = entry.get("stage", "initial")
            if subject == obj:
                raise FormatError(f"triplet subject and object must differ, both are {subject!r}")
            if stage not in STAGES:
                raise FormatError(f"unknown stage {stage!r}")
        except FormatError as exc:
            raise FormatError(f"{path}: triplets[{index}]: {exc}") from None
        key = (subject, relation, obj)
        stage = STAGES.index(stage)
        if stage < collapsed.get(key, len(STAGES)):
            collapsed[key] = stage

    roster = tuple(categories)
    index = {name: i for i, name in enumerate(roster)}
    if len(index) != len(roster):
        raise FormatError(f"{path}: category roster contains duplicates")
    rows = []
    for (s, r, o), stage in collapsed.items():
        if s not in index or o not in index:
            name = s if s not in index else o
            raise UnknownCategoryError(f"{path}: triplet {SpatialTriplet(s, r, o)} names {name!r}, not in roster")
        rows.append((index[s], RELATION_CODES[r], index[o], stage))
    return roster, np.array(rows, dtype=np.intp).reshape(-1, 4).T.copy()


def reference_load_scripted_oracle(path: str | Path) -> tuple[dict, dict]:
    """The holds and choose tables of an oracle file, or the error, as the
    loader gave them when it checked every entry in order: keys, names,
    answer, relations."""
    doc = load_json_object(path)
    require_keys(doc, frozenset(), frozenset({"holds", "choose"}), str(path))

    holds = {}
    for index, entry in enumerate(_reference_table(doc, "holds", path)):
        try:
            if not isinstance(entry, dict) or entry.keys() != {"s", "r", "o", "a"}:
                raise FormatError("expected keys s, r, o, a")
            s, o, answer = entry["s"], entry["o"], entry["a"]
            if not isinstance(s, str):
                raise _not_a_name("s", s)
            if not isinstance(o, str):
                raise _not_a_name("o", o)
            if answer not in ("yes", "no", "unknown"):
                raise FormatError(f"answer must be yes/no/unknown, got {answer!r}")
            holds[s, parse_relation(entry["r"]), o] = answer
        except FormatError as exc:
            raise FormatError(f"{path}: holds[{index}]: {exc}") from None

    choose = {}
    for index, entry in enumerate(_reference_table(doc, "choose", path)):
        try:
            if not isinstance(entry, dict) or entry.keys() != {"s", "r1", "r2", "o", "a"}:
                raise FormatError("expected keys s, r1, r2, o, a")
            s, o, answer = entry["s"], entry["o"], entry["a"]
            if not isinstance(s, str):
                raise _not_a_name("s", s)
            if not isinstance(o, str):
                raise _not_a_name("o", o)
            if answer not in ("first", "second", "neither"):
                raise FormatError(f"answer must be first/second/neither, got {answer!r}")
            choose[s, parse_relation(entry["r1"]), parse_relation(entry["r2"]), o] = answer
        except FormatError as exc:
            raise FormatError(f"{path}: choose[{index}]: {exc}") from None

    return holds, choose
