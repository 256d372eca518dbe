"""Symbolic spatial-relation triplets and the calibration pipeline.

A triplet <subject, relation, object> states "subject is positioned at
<relation> of object". Calibration augments a raw triplet set with the
reverse of every statement, validates each survivor with a yes/no oracle in
both directions, then detects and resolves contradictory pairs. The oracle
abstraction stands in for whatever answered the original spatial questions;
two implementations ship here: one replaying a recorded answer table and one
derived from label-map geometry.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from enum import Enum
from operator import attrgetter
from pathlib import Path
from typing import Iterator, Literal, Mapping, Protocol, Sequence, get_args

import numpy as np

from .errors import FormatError, UnknownCategoryError, load_json_object, require_keys, writing_to
from .grid import LabelMap, mean_coordinates

Stage = Literal["initial", "bidirectional", "validated", "resolved"]
HoldsAnswer = Literal["yes", "no", "unknown"]
ChooseAnswer = Literal["first", "second", "neither"]

STAGES: tuple[Stage, ...] = get_args(Stage)

#: Name of the category excluded from constraints.
BACKGROUND = "background"


class Relation(str, Enum):
    """The four fundamental positional relations (rows grow downward). Each
    states its geometry once: the `axis` it compares, and `after`, True when
    the subject sits at larger coordinates than the object (below, right)."""

    ABOVE = ("above", "row", False)
    BELOW = ("below", "row", True)
    LEFT = ("left", "col", False)
    RIGHT = ("right", "col", True)

    def __new__(cls, value: str, axis: Literal["row", "col"], after: bool) -> Relation:
        member = str.__new__(cls, value)
        member._value_, member.axis, member.after = value, axis, after
        return member


#: A relation's code: its index in tuple(Relation), the last axis of relation tables.
RELATION_CODES = {relation: code for code, relation in enumerate(Relation)}

_OPPOSITE = {r: q for r in Relation for q in Relation if q.axis == r.axis and q.after != r.after}


def opposite(relation: Relation) -> Relation:
    """Above <-> Below, Left <-> Right; an involution."""
    return _OPPOSITE[relation]


_RELATIONS = {r.value: r for r in Relation}


def parse_relation(name: str) -> Relation:
    """The relation named `name`; anything else, an unhashable value included,
    raises FormatError."""
    try:
        return _RELATIONS[name]
    except (KeyError, TypeError):
        raise FormatError(f"unknown relation {name!r}, expected one of: {', '.join(_RELATIONS)}") from None


TripletKey = tuple[str, Relation, str]

#: The key of a triplet as a plain function, for `map` over many triplets.
_triplet_key = attrgetter("subject", "relation", "object")


@dataclass(frozen=True, init=False)
class SpatialTriplet:
    """One spatial statement plus the pipeline stage that last affirmed it."""

    subject: str
    relation: Relation
    object: str
    stage: Stage = "initial"

    def __init__(self, subject: str, relation: Relation, object: str, stage: Stage = "initial") -> None:
        # Calibration builds hundreds of thousands of triplets, so the fields
        # go straight into the instance dict rather than through the frozen
        # dataclass's per-field `object.__setattr__`.
        if subject == object:
            raise FormatError(f"triplet subject and object must differ, both are {subject!r}")
        if stage not in STAGES:
            raise FormatError(f"unknown stage {stage!r}")
        fields = self.__dict__
        fields["subject"] = subject
        fields["relation"] = relation
        fields["object"] = object
        fields["stage"] = stage

    key = property(_triplet_key, doc="Identity of the statement itself, ignoring provenance.")

    def reversed(self) -> SpatialTriplet:
        """The equivalent statement seen from the object's side."""
        return SpatialTriplet(self.object, opposite(self.relation), self.subject, stage=self.stage)

    def __str__(self) -> str:
        return f"<{self.subject}, {self.relation.value}, {self.object}>"


@dataclass(frozen=True)
class TripletSet:
    """Ordered, duplicate-free collection of triplets over a category roster.

    Construction checks both properties. The calibration stages derive their
    sets from a checked one through `_derive`, which skips the check.
    """

    triplets: tuple[SpatialTriplet, ...]
    categories: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "triplets", tuple(self.triplets))
        object.__setattr__(self, "categories", tuple(self.categories))
        roster = set(self.categories)
        if len(roster) != len(self.categories):
            raise FormatError("category roster contains duplicates")
        items = self.triplets
        if (
            len(set(map(_triplet_key, items))) == len(items)
            and roster.issuperset(map(attrgetter("subject"), items))
            and roster.issuperset(map(attrgetter("object"), items))
        ):
            return
        # Some triplet is a duplicate or names an unknown category: the
        # first offender in order decides the error.
        seen: set[TripletKey] = set()
        for t in self.triplets:
            if t.key in seen:
                raise FormatError(f"duplicate triplet {t}")
            seen.add(t.key)
            for name in (t.subject, t.object):
                if name not in roster:
                    raise UnknownCategoryError(f"triplet {t} names {name!r}, not in roster")

    def __iter__(self) -> Iterator[SpatialTriplet]:
        return iter(self.triplets)

    def __len__(self) -> int:
        return len(self.triplets)

    def keys(self) -> frozenset[TripletKey]:
        return frozenset(t.key for t in self.triplets)

    def _derive(self, triplets: Sequence[SpatialTriplet]) -> TripletSet:
        """A set over the same roster, built without the duplicate and roster
        check. Only for triplets that keep this set's guarantees: members of
        this set filtered, restaged or reversed, with distinct keys."""
        derived = object.__new__(TripletSet)
        derived.__dict__.update(triplets=tuple(triplets), categories=self.categories)
        return derived


class RelationOracle(Protocol):
    """Answers the two question shapes the calibration pipeline asks."""

    def holds(self, subject: str, relation: Relation, object: str) -> HoldsAnswer:
        """Does '<subject> is at <relation> of <object>' hold?"""
        ...

    def choose(
        self, subject: str, first: Relation, second: Relation, object: str
    ) -> ChooseAnswer:
        """Which of two candidate relations between subject and object is right?"""
        ...


# ---------------------------------------------------------------------------
# Pipeline stages
# ---------------------------------------------------------------------------


def augment_bidirectional(triplets: TripletSet) -> TripletSet:
    """Add the reverse of every statement unless that exact triplet exists.

    Originals keep their stage; additions are tagged "bidirectional". The
    result is duplicate-free and applying this twice changes nothing.
    """
    present = set(map(_triplet_key, triplets.triplets))
    out = list(triplets.triplets)
    for t in triplets.triplets:
        key = (t.object, _OPPOSITE[t.relation], t.subject)
        if key not in present:
            present.add(key)
            out.append(SpatialTriplet(*key, "bidirectional"))
    return triplets._derive(out)


def validate_polar(triplets: TripletSet, oracle: RelationOracle) -> TripletSet:
    """Keep a triplet only if both it and its reflection are affirmed.

    The primary question asks about the statement as written, the reflection
    asks about its reverse; anything short of a "yes" on both (including
    "unknown") drops the triplet.
    """
    kept = []
    for s, r, o in map(_triplet_key, triplets.triplets):
        primary = oracle.holds(s, r, o)
        reflection = oracle.holds(o, _OPPOSITE[r], s)
        if primary == "yes" and reflection == "yes":
            kept.append(SpatialTriplet(s, r, o, "validated"))
    return triplets._derive(kept)


ContradictionKind = Literal["cyclic", "directional"]


@dataclass(frozen=True)
class ContradictionPair:
    """Two mutually inconsistent triplets and the pattern they match.

    Cyclic: both orderings claim the same relation (<a,r,b> and <b,r,a>).
    Directional: one ordering claims a relation and its opposite
    (<a,r,b> and <a,opp(r),b>). The complementary pair <a,r,b> / <b,opp(r),a>
    is consistent and never reported.
    """

    first: SpatialTriplet
    second: SpatialTriplet
    kind: ContradictionKind


def detect_contradictions(triplets: TripletSet) -> list[ContradictionPair]:
    """Every contradictory pair, ordered by the first then the second index.

    A triplet has at most one cyclic partner <o,r,s> and one directional
    partner <s,opp(r),o>, so each is a key lookup rather than a pair scan.
    """
    items = triplets.triplets
    keys = list(map(_triplet_key, items))
    index = {key: i for i, key in enumerate(keys)}
    found: list[tuple[int, int, ContradictionKind]] = []
    for i, (s, r, o) in enumerate(keys):
        partners = (((o, r, s), "cyclic"), ((s, _OPPOSITE[r], o), "directional"))
        for key, kind in partners:
            j = index.get(key, -1)
            if j > i:
                found.append((i, j, kind))
    found.sort()
    return [ContradictionPair(items[i], items[j], kind) for i, j, kind in found]


def resolve_contradictions(
    triplets: TripletSet,
    pairs: Sequence[ContradictionPair],
    oracle: RelationOracle,
) -> TripletSet:
    """Ask the oracle to settle each contradictory pair.

    Each pair becomes one two-option question posed from the first triplet's
    perspective (its own relation versus the opposite, which is equivalent to
    the second triplet's claim). "first" keeps the first and drops the second,
    "second" the converse, "neither" discards both. A triplet dropped while
    settling one pair stays dropped even if another pair would keep it.

    Precondition: `pairs` is `detect_contradictions(triplets)`. Then the
    result is contradiction-free: every pair loses at least one member, and
    removing triplets cannot form a new pair.
    """
    dropped: set[TripletKey] = set()
    chosen: set[TripletKey] = set()
    for pair in pairs:
        first = _triplet_key(pair.first)
        second = _triplet_key(pair.second)
        s, r, o = first
        answer = oracle.choose(s, r, _OPPOSITE[r], o)
        if answer == "first":
            chosen.add(first)
            dropped.add(second)
        elif answer == "second":
            chosen.add(second)
            dropped.add(first)
        else:
            dropped.add(first)
            dropped.add(second)

    kept = []
    for t in triplets.triplets:
        key = _triplet_key(t)
        if key not in dropped:
            kept.append(SpatialTriplet(*key, "resolved") if key in chosen else t)
    return triplets._derive(kept)


@dataclass(frozen=True)
class CalibrationAudit:
    """Per-stage counts recorded while calibrating one triplet set."""

    initial: int
    background_dropped: int
    augmented: int
    validated: int
    contradiction_pairs: int
    resolution_dropped: int
    final: int

    def to_dict(self) -> dict[str, int]:
        return asdict(self)


@dataclass(frozen=True)
class CalibrationResult:
    triplets: TripletSet
    audit: CalibrationAudit


def calibrate(initial: TripletSet, oracle: RelationOracle) -> CalibrationResult:
    """Run the full pipeline: drop the triplets that name the background,
    then augment, validate, detect and resolve.

    The returned set is contradiction-free and a subset of the augmented
    input; the audit carries the per-stage counts, the background triplets
    dropped among them.
    """
    work = initial._derive([t for t in initial if BACKGROUND not in (t.subject, t.object)])

    augmented = augment_bidirectional(work)
    validated = validate_polar(augmented, oracle)
    pairs = detect_contradictions(validated)
    resolved = resolve_contradictions(validated, pairs, oracle)

    audit = CalibrationAudit(
        initial=len(initial),
        background_dropped=len(initial) - len(work),
        augmented=len(augmented),
        validated=len(validated),
        contradiction_pairs=len(pairs),
        resolution_dropped=len(validated) - len(resolved),
        final=len(resolved),
    )
    return CalibrationResult(triplets=resolved, audit=audit)


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


class GeometricOracle:
    """Answers from label-map geometry: centroid comparison per axis.

    holds(s, r, o) is "yes" iff both categories occupy at least one pixel and
    the centroid of s lies strictly on the r side of o's centroid (columns
    for left/right, rows for above/below, rows growing downward). Answers
    are read from `table`, (C, C, 4) over (subject, object, relation code).
    """

    def __init__(self, labels: LabelMap, roster: Sequence[str]):
        if labels.num_categories != len(roster):
            raise UnknownCategoryError(
                f"label map declares {labels.num_categories} categories, roster has {len(roster)}"
            )
        onehot = labels.labels == np.arange(len(roster))[:, None, None]
        means = {"row": mean_coordinates(onehot.sum(axis=2), 0.0), "col": mean_coordinates(onehot.sum(axis=1), 0.0)}
        sides = [(np.greater if r.after else np.less).outer(means[r.axis], means[r.axis]) for r in Relation]
        present = onehot.any(axis=(1, 2))
        self.table = np.stack(sides, axis=2) & (present[:, None] & present)[:, :, None]
        self._index = {name: i for i, name in enumerate(roster)}

    def holds(self, subject: str, relation: Relation, object: str) -> HoldsAnswer:
        s, o = self._index.get(subject), self._index.get(object)
        return "no" if s is None or o is None or not self.table[s, o, RELATION_CODES[relation]] else "yes"

    def choose(self, subject: str, first: Relation, second: Relation, object: str) -> ChooseAnswer:
        if self.holds(subject, first, object) == "yes":
            return "first"
        if self.holds(subject, second, object) == "yes":
            return "second"
        return "neither"


geometric_oracle = GeometricOracle


HoldsTable = Mapping[tuple[str, Relation, str], HoldsAnswer]
ChooseTable = Mapping[tuple[str, Relation, Relation, str], ChooseAnswer]


class ScriptedOracle:
    """Replays a recorded answer table; unrecorded queries answer unknown/neither."""

    def __init__(self, holds: HoldsTable, choose: ChooseTable):
        self._holds = dict(holds)
        self._choose = dict(choose)

    def holds(self, subject: str, relation: Relation, object: str) -> HoldsAnswer:
        return self._holds.get((subject, relation, object), "unknown")

    def choose(self, subject: str, first: Relation, second: Relation, object: str) -> ChooseAnswer:
        return self._choose.get((subject, first, second, object), "neither")


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------
#
# Triplet files: {"categories": ["cat", ...],
#                 "triplets": [{"subject": "cat", "relation": "right",
#                               "object": "person", "stage": "initial"}, ...]}
# Oracle files:  {"holds": [{"s": "...", "r": "...", "o": "...", "a": "yes"}],
#                 "choose": [{"s": "...", "r1": "...", "r2": "...", "o": "...",
#                             "a": "first"}]}


_TRIPLET_FILE_KEYS = frozenset({"categories", "triplets"})
_TRIPLET_KEYS = frozenset({"subject", "relation", "object", "stage"})
_ORACLE_FILE_KEYS = frozenset({"holds", "choose"})
_HOLDS_KEYS = frozenset({"s", "r", "o", "a"})
_CHOOSE_KEYS = frozenset({"s", "r1", "r2", "o", "a"})
_HOLDS_ANSWERS: tuple[HoldsAnswer, ...] = get_args(HoldsAnswer)
_CHOOSE_ANSWERS: tuple[ChooseAnswer, ...] = get_args(ChooseAnswer)


def _not_a_name(key: str, value: object) -> FormatError:
    """Category names must be strings: they key dicts and sets downstream."""
    return FormatError(f"{key!r} must be a string, got {value!r}")


def _table(doc: dict, name: str, path: str | Path) -> list:
    entries = doc.get(name, [])
    if not isinstance(entries, list):
        raise FormatError(f"{path}: {name!r} must be a list")
    return entries


def load_triplets(path: str | Path) -> TripletSet:
    """Load a triplet set. Each entry reads subject first: "subject" is at
    "relation" of "object". Exact duplicates (same subject, relation, object)
    collapse to one entry keeping the earliest stage tag.
    """
    doc = load_json_object(path)
    require_keys(doc, frozenset(), _TRIPLET_FILE_KEYS, str(path))
    categories = doc.get("categories")
    if not isinstance(categories, list) or not all(isinstance(c, str) for c in categories):
        raise FormatError(f"{path}: 'categories' must be a list of strings")

    # Each entry is checked once, inline; the file and index prefix the
    # message only when a check fails.
    collapsed: dict[TripletKey, SpatialTriplet] = {}
    for index, entry in enumerate(_table(doc, "triplets", path)):
        try:
            if not isinstance(entry, dict):
                raise FormatError("expected an object")
            if not entry.keys() <= _TRIPLET_KEYS:
                raise FormatError(f"unknown keys {sorted(entry.keys() - _TRIPLET_KEYS)}")
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
            if stage not in STAGES:
                raise FormatError(f"unknown stage {stage!r}")
            t = SpatialTriplet(subject, relation, obj, stage)
        except FormatError as exc:
            raise FormatError(f"{path}: triplets[{index}]: {exc}") from None
        key = (subject, relation, obj)
        kept = collapsed.get(key)
        if kept is None or STAGES.index(stage) < STAGES.index(kept.stage):
            collapsed[key] = t

    try:
        return TripletSet(tuple(collapsed.values()), tuple(categories))
    except (FormatError, UnknownCategoryError) as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _json_list(items: list[str]) -> str:
    """A JSON array at depth 1 of indent 2, from items already indented to depth 2."""
    return "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"


def save_triplets(path: str | Path, triplets: TripletSet) -> None:
    """Write the bytes `write_json_object` writes for the same document (indent
    2, sorted keys), building the layout here so that only the strings go
    through json's encoder, each roster name once. Relations and stages come
    from fixed ASCII vocabularies and need no escaping."""
    name = {c: json.dumps(c) for c in triplets.categories}
    categories = [f"    {name[c]}" for c in triplets.categories]
    rows = [
        f'    {{\n      "object": {name[t.object]},\n      "relation": "{t.relation.value}",\n'
        f'      "stage": "{t.stage}",\n      "subject": {name[t.subject]}\n    }}'
        for t in triplets.triplets
    ]
    text = f'{{\n  "categories": {_json_list(categories)},\n  "triplets": {_json_list(rows)}\n}}\n'
    with writing_to(path):
        Path(path).write_text(text, encoding="utf-8")


def load_scripted_oracle(path: str | Path) -> ScriptedOracle:
    doc = load_json_object(path)
    require_keys(doc, frozenset(), _ORACLE_FILE_KEYS, str(path))

    # Each entry is checked once, inline, in the order keys, names, answer,
    # relations.
    holds: dict[tuple[str, Relation, str], HoldsAnswer] = {}
    for index, entry in enumerate(_table(doc, "holds", path)):
        try:
            if not isinstance(entry, dict) or entry.keys() != _HOLDS_KEYS:
                raise FormatError("expected keys s, r, o, a")
            s, o, answer = entry["s"], entry["o"], entry["a"]
            if not isinstance(s, str):
                raise _not_a_name("s", s)
            if not isinstance(o, str):
                raise _not_a_name("o", o)
            if answer not in _HOLDS_ANSWERS:
                raise FormatError(f"answer must be {'/'.join(_HOLDS_ANSWERS)}, got {answer!r}")
            holds[s, parse_relation(entry["r"]), o] = answer
        except FormatError as exc:
            raise FormatError(f"{path}: holds[{index}]: {exc}") from None

    choose: dict[tuple[str, Relation, Relation, str], ChooseAnswer] = {}
    for index, entry in enumerate(_table(doc, "choose", path)):
        try:
            if not isinstance(entry, dict) or entry.keys() != _CHOOSE_KEYS:
                raise FormatError("expected keys s, r1, r2, o, a")
            s, o, answer = entry["s"], entry["o"], entry["a"]
            if not isinstance(s, str):
                raise _not_a_name("s", s)
            if not isinstance(o, str):
                raise _not_a_name("o", o)
            if answer not in _CHOOSE_ANSWERS:
                raise FormatError(f"answer must be {'/'.join(_CHOOSE_ANSWERS)}, got {answer!r}")
            choose[s, parse_relation(entry["r1"]), parse_relation(entry["r2"]), o] = answer
        except FormatError as exc:
            raise FormatError(f"{path}: choose[{index}]: {exc}") from None

    return ScriptedOracle(holds, choose)
