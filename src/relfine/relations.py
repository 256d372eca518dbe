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
from functools import cached_property
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Iterator, Literal, Mapping, Protocol, Sequence, get_args

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

_RELATION_LIST = tuple(Relation)
#: _OPPOSITE_CODES[code] is the code of the opposite relation.
_OPPOSITE_CODES = np.array([RELATION_CODES[_OPPOSITE[r]] for r in Relation])
_STAGE_CODES = {stage: code for code, stage in enumerate(STAGES)}


def _check_triplet(subject: str, object: str, stage: object) -> None:
    if subject == object:
        raise FormatError(f"triplet subject and object must differ, both are {subject!r}")
    if stage not in STAGES:
        raise FormatError(f"unknown stage {stage!r}")


@dataclass(frozen=True)
class SpatialTriplet:
    """One spatial statement plus the pipeline stage that last affirmed it."""

    subject: str
    relation: Relation
    object: str
    stage: Stage = "initial"

    def __post_init__(self) -> None:
        # A relation name becomes its Relation; anything else raises FormatError.
        object.__setattr__(self, "relation", parse_relation(self.relation))
        _check_triplet(self.subject, self.object, self.stage)

    key = property(_triplet_key, doc="Identity of the statement itself, ignoring provenance.")

    def __str__(self) -> str:
        return f"<{self.subject}, {self.relation.value}, {self.object}>"


def _encode(categories: tuple[str, ...], keys: Sequence[TripletKey], stages: Sequence[int]) -> np.ndarray:
    """The (4, T) codes of distinct triplet keys and their stage codes over
    a roster. A roster with duplicates raises FormatError; a name outside it
    raises UnknownCategoryError for the first key that has one."""
    index = {name: i for i, name in enumerate(categories)}
    if len(index) != len(categories):
        raise FormatError("category roster contains duplicates")
    try:
        rows = [(index[s], RELATION_CODES[r], index[o], g) for (s, r, o), g in zip(keys, stages)]
    except KeyError:
        s, r, o = next(key for key in keys if not index.keys() >= {key[0], key[2]})
        name = s if s not in index else o
        raise UnknownCategoryError(f"triplet {SpatialTriplet(s, r, o)} names {name!r}, not in roster") from None
    return np.array(rows, dtype=np.intp).reshape(-1, 4).T.copy()


class TripletSet:
    """Ordered, duplicate-free collection of triplets over a category roster.

    The set is `codes`, a (4, T) integer array in the set's order whose rows
    are (T,) arrays: subject and object index `categories`, relation holds
    RELATION_CODES and stage indexes STAGES. `SpatialTriplet`s are built only
    when the set is iterated or `triplets` is read. Construction from
    triplets checks both properties; the loader, the calibration stages and
    derive_gt_triplets build sets through `_from_codes`, which skips it.
    """

    def __init__(self, triplets: Iterable[SpatialTriplet], categories: Sequence[str]) -> None:
        self.triplets, self.categories = tuple(triplets), tuple(categories)
        self.__post_init__()

    def __post_init__(self) -> None:
        # The first offender decides: a bad roster or name before the first repeat, else that repeat.
        keys = list(map(_triplet_key, self.triplets))
        seen: dict[TripletKey, int] = {}
        repeat = next((i for i, key in enumerate(keys) if seen.setdefault(key, i) != i), len(keys))
        self.codes = _encode(self.categories, keys[:repeat], [_STAGE_CODES[t.stage] for t in self.triplets])
        if repeat < len(keys):
            raise FormatError(f"duplicate triplet {self.triplets[repeat]}")

    @classmethod
    def _from_codes(cls, categories: tuple[str, ...], codes: np.ndarray) -> TripletSet:
        """The set of `codes` over `categories`, unchecked: only for distinct
        statements over this roster, each subject unlike its object."""
        derived = object.__new__(cls)
        derived.categories, derived.codes = categories, codes
        return derived

    def columns(self) -> tuple[list[str], list[Relation], list[str], list[Stage]]:
        """Subject names, relations, object names and stages, as lists in set order."""
        tables = (self.categories, _RELATION_LIST, self.categories, STAGES)
        return tuple([table[code] for code in row] for table, row in zip(tables, self.codes.tolist()))

    @cached_property
    def triplets(self) -> tuple[SpatialTriplet, ...]:
        return tuple(map(SpatialTriplet, *self.columns()))

    def __iter__(self) -> Iterator[SpatialTriplet]:
        return iter(self.triplets)

    def __len__(self) -> int:
        return self.codes.shape[1]

    def __eq__(self, other: object) -> bool:
        same_roster = isinstance(other, TripletSet) and self.categories == other.categories
        return same_roster and np.array_equal(self.codes, other.codes)

    def keys(self) -> frozenset[TripletKey]:
        return frozenset(zip(*self.columns()[:3]))


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


def _positions(triplets: TripletSet) -> np.ndarray:
    """(C, C, 4) table over (subject, object, relation code): each
    statement's position in the set, -1 where the set does not state it."""
    size = len(triplets.categories)
    table = np.full((size, size, len(Relation)), -1, dtype=np.intp)
    s, r, o, _ = triplets.codes
    table[s, o, r] = np.arange(len(triplets))
    return table


def _restaged(triplets: TripletSet, keep: np.ndarray, stages: np.ndarray) -> TripletSet:
    """The triplets that `keep` selects, with `stages` as their stage codes."""
    return TripletSet._from_codes(triplets.categories, np.vstack([triplets.codes[:3], stages])[:, keep])


def augment_bidirectional(triplets: TripletSet) -> TripletSet:
    """Add the reverse of every statement unless that exact triplet exists.

    Originals keep their stage; additions are tagged "bidirectional" and
    follow the originals in their order. The result is duplicate-free and
    applying this twice changes nothing.
    """
    s, r, o, _ = triplets.codes
    reverses = np.stack([o, _OPPOSITE_CODES[r], s, np.full_like(s, _STAGE_CODES["bidirectional"])])
    add = _positions(triplets)[o, s, reverses[1]] < 0
    return TripletSet._from_codes(triplets.categories, np.hstack([triplets.codes, reverses[:, add]]))


def validate_polar(triplets: TripletSet, oracle: RelationOracle) -> TripletSet:
    """Keep a triplet only if both it and its reflection are affirmed.

    The primary question asks about the statement as written, the reflection
    asks about its reverse; anything short of a "yes" on both (including
    "unknown") drops the triplet. Each distinct statement is asked once, in
    the order the questions first come up: a triplet whose reverse comes
    earlier in the set asks nothing, since its statement is that reverse's
    reflection and its reflection is that reverse's statement, so it keeps
    what its reverse keeps. A set closed under reversal, as augmentation
    leaves it, thus has each statement asked once, not twice.
    """
    s, r, o, _ = triplets.codes
    reverse = _positions(triplets)[o, s, _OPPOSITE_CODES[r]]
    asks = (reverse < 0) | (reverse > np.arange(len(triplets)))
    names, relations = triplets.categories, _RELATION_LIST
    answers = [
        (oracle.holds(names[a], relations[c], names[b]), oracle.holds(names[b], relations[d], names[a]))
        for a, c, b, d in zip(*(codes[asks].tolist() for codes in (s, r, o, _OPPOSITE_CODES[r])))
    ]
    keep = np.zeros(len(triplets), dtype=bool)
    keep[asks] = [answer == ("yes", "yes") for answer in answers]
    keep[~asks] = keep[reverse[~asks]]
    return _restaged(triplets, keep, np.full(len(triplets), _STAGE_CODES["validated"]))


ContradictionKind = Literal["cyclic", "directional"]
_KINDS: tuple[ContradictionKind, ...] = get_args(ContradictionKind)


class ContradictionPair:
    """Two mutually inconsistent triplets and the pattern they match.

    Cyclic: both orderings claim the same relation (<a,r,b> and <b,r,a>).
    Directional: one ordering claims a relation and its opposite
    (<a,r,b> and <a,opp(r),b>). The complementary pair <a,r,b> / <b,opp(r),a>
    is consistent and never reported.

    A pair holds its members' `positions` (i, j) in `triplets` and builds
    `first` and `second` only when read.
    """

    def __init__(self, triplets: TripletSet, i: int, j: int, kind: ContradictionKind) -> None:
        self._set, self.positions, self.kind = triplets, (i, j), kind

    first = cached_property(lambda self: self._set.triplets[self.positions[0]])
    second = cached_property(lambda self: self._set.triplets[self.positions[1]])

    def __eq__(self, other: object) -> bool:
        fields = attrgetter("first", "second", "kind")
        return isinstance(other, ContradictionPair) and fields(self) == fields(other)


def detect_contradictions(triplets: TripletSet) -> list[ContradictionPair]:
    """Every contradictory pair, ordered by the first then the second index.

    A triplet has at most one cyclic partner <o,r,s> and one directional
    partner <s,opp(r),o>, so each is a gather from the position table
    rather than a pair scan.
    """
    s, r, o, _ = triplets.codes
    positions = _positions(triplets)
    partners = np.stack([positions[o, s, r], positions[s, o, _OPPOSITE_CODES[r]]], axis=1)  # columns index _KINDS
    first, kinds = np.nonzero(partners > np.arange(len(triplets))[:, None])
    second = partners[first, kinds]
    order = np.lexsort((second, first))
    rows = zip(*(a[order].tolist() for a in (first, second, kinds)))
    return [ContradictionPair(triplets, i, j, _KINDS[k]) for i, j, k in rows]


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

    With `pairs` = `detect_contradictions(triplets)` the result is
    contradiction-free: every pair loses at least one member, and removing
    triplets cannot form a new pair.
    """
    dropped = np.zeros(len(triplets), dtype=bool)
    chosen = np.zeros(len(triplets), dtype=bool)
    names = triplets.categories
    subjects, relations, objects, stages = triplets.codes
    for pair in pairs:
        i, j = pair.positions
        relation = _RELATION_LIST[relations[i]]
        answer = oracle.choose(names[subjects[i]], relation, _OPPOSITE[relation], names[objects[i]])
        if answer == "first":
            chosen[i] = dropped[j] = True
        elif answer == "second":
            chosen[j] = dropped[i] = True
        else:
            dropped[i] = dropped[j] = True
    return _restaged(triplets, ~dropped, np.where(chosen, _STAGE_CODES["resolved"], stages))


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
    roster = initial.categories
    background = roster.index(BACKGROUND) if BACKGROUND in roster else -1
    s, _, o, stages = initial.codes
    work = _restaged(initial, (s != background) & (o != background), stages)

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


def _triplet_entry(entry: object) -> tuple[str, Relation, str, Stage]:
    """A triplet entry's fields through the ordered checks; the first that fails raises FormatError."""
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
    _check_triplet(subject, obj, stage)
    return subject, relation, obj, stage


def load_triplets(path: str | Path) -> TripletSet:
    """Load a triplet set. Each entry reads subject first: "subject" is at
    "relation" of "object". Each entry takes one cheap test, and only one
    that fails it goes through the ordered checks that word the message.
    Names become roster indices as they are read. A repeated statement
    keeps its first position and its earliest stage tag. Errors come in
    this order: the first malformed entry, a roster with duplicates, the
    first entry naming a category outside the roster."""
    doc = load_json_object(path)
    require_keys(doc, frozenset(), _TRIPLET_FILE_KEYS, str(path))
    categories = doc.get("categories")
    if not isinstance(categories, list) or not all(isinstance(c, str) for c in categories):
        raise FormatError(f"{path}: 'categories' must be a list of strings")

    roster = tuple(categories)
    index, size = {name: i for i, name in enumerate(roster)}, len(roster)
    parse = parse_relation
    collapsed: dict[int, int] = {}  # (s·4 + relation code)·C + o -> earliest stage code, in first-seen order
    unknown: list[TripletKey] = []  # the first key naming a category outside the roster
    for position, entry in enumerate(_table(doc, "triplets", path)):
        try:
            if (type(entry) is dict and len(entry) == 3 + ("stage" in entry)
                    and type(s := entry.get("subject")) is str and type(o := entry.get("object")) is str and s != o
                    and (g := entry.get("stage", "initial")) in STAGES and "relation" in entry):
                r = parse(entry["relation"])
            else:
                s, r, o, g = _triplet_entry(entry)
        except FormatError as exc:
            raise FormatError(f"{path}: triplets[{position}]: {exc}") from None
        try:
            key = (index[s] * 4 + RELATION_CODES[r]) * size + index[o]
        except KeyError:
            unknown = unknown or [(s, r, o)]
            continue
        if _STAGE_CODES[g] < collapsed.get(key, len(STAGES)):
            collapsed[key] = _STAGE_CODES[g]

    try:
        _encode(roster, unknown, (0,))  # raises for a roster with duplicates, then for the unknown name
    except (FormatError, UnknownCategoryError) as exc:
        raise type(exc)(f"{path}: {exc}") from None
    subjects_relations, objects = np.divmod(np.fromiter(collapsed, np.intp, len(collapsed)), size)
    stages = np.fromiter(collapsed.values(), np.intp, len(collapsed))
    return TripletSet._from_codes(roster, np.stack([*np.divmod(subjects_relations, 4), objects, stages]))


def _json_list(items: list[str]) -> str:
    """A JSON array at depth 1 of indent 2, from items already indented to depth 2."""
    return "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"


def save_triplets(path: str | Path, triplets: TripletSet) -> None:
    """Write the bytes `write_json_object` writes for the same document (indent
    2, sorted keys), building the layout here from the set's code arrays so
    that only the strings go through json's encoder, each roster name once.
    Relations and stages come from fixed ASCII vocabularies and need no
    escaping."""
    names = [json.dumps(c) for c in triplets.categories]
    relations = [r.value for r in Relation]
    rows = [
        f'    {{\n      "object": {names[o]},\n      "relation": "{relations[r]}",\n'
        f'      "stage": "{STAGES[g]}",\n      "subject": {names[s]}\n    }}'
        for s, r, o, g in zip(*triplets.codes.tolist())
    ]
    categories = [f"    {name}" for name in names]
    text = f'{{\n  "categories": {_json_list(categories)},\n  "triplets": {_json_list(rows)}\n}}\n'
    with writing_to(path):
        Path(path).write_text(text, encoding="utf-8")


def _oracle_entry(entry: object, relations: tuple[str, ...], answers: tuple[str, ...]) -> tuple[tuple, str]:
    """An oracle entry's question and answer through the ordered checks; the first that fails raises FormatError."""
    keys = ("s", *relations, "o", "a")
    if not isinstance(entry, dict) or entry.keys() != set(keys):
        raise FormatError(f"expected keys {', '.join(keys)}")
    s, o, answer = entry["s"], entry["o"], entry["a"]
    if not isinstance(s, str):
        raise _not_a_name("s", s)
    if not isinstance(o, str):
        raise _not_a_name("o", o)
    if answer not in answers:
        raise FormatError(f"answer must be {'/'.join(answers)}, got {answer!r}")
    return (s, *(parse_relation(entry[r]) for r in relations), o), answer


def load_scripted_oracle(path: str | Path) -> ScriptedOracle:
    """Load a recorded answer table. Each entry takes one cheap test, and only
    one that fails it goes through the ordered checks that word the message.
    A repeated question keeps its first position and its last answer."""
    doc = load_json_object(path)
    require_keys(doc, frozenset(), _ORACLE_FILE_KEYS, str(path))
    parse = parse_relation
    holds: dict[tuple[str, Relation, str], HoldsAnswer] = {}
    for index, entry in enumerate(_table(doc, "holds", path)):
        try:
            if (type(entry) is dict and len(entry) == 4 and type(s := entry.get("s")) is str
                    and type(o := entry.get("o")) is str and (a := entry.get("a")) in _HOLDS_ANSWERS and "r" in entry):
                holds[s, parse(entry["r"]), o] = a
            else:
                holds.update([_oracle_entry(entry, ("r",), _HOLDS_ANSWERS)])
        except FormatError as exc:
            raise FormatError(f"{path}: holds[{index}]: {exc}") from None

    choose: dict[tuple[str, Relation, Relation, str], ChooseAnswer] = {}
    for index, entry in enumerate(_table(doc, "choose", path)):
        try:
            if (type(entry) is dict and len(entry) == 5 and type(s := entry.get("s")) is str
                    and type(o := entry.get("o")) is str and (a := entry.get("a")) in _CHOOSE_ANSWERS
                    and "r1" in entry and "r2" in entry):
                choose[s, parse(entry["r1"]), parse(entry["r2"]), o] = a
            else:
                choose.update([_oracle_entry(entry, ("r1", "r2"), _CHOOSE_ANSWERS)])
        except FormatError as exc:
            raise FormatError(f"{path}: choose[{index}]: {exc}") from None

    return ScriptedOracle(holds, choose)
