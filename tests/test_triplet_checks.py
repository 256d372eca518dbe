"""Where triplets and triplet sets are checked.

`SpatialTriplet(...)`, `TripletSet(...)` and the loaders check their input;
the calibration stages derive their sets from an already-checked set without
checking again. These tests pin both halves: the derived sets are ones the
full check accepts, and `calibrate` runs no check beyond its input's.
"""

from __future__ import annotations

import pickle
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest

from relfine import relations
from relfine.errors import FormatError
from relfine.relations import (
    BACKGROUND,
    STAGES,
    Relation,
    ScriptedOracle,
    SpatialTriplet,
    TripletSet,
    calibrate,
    opposite,
)

STAGE_FUNCTIONS = ("augment_bidirectional", "validate_polar", "resolve_contradictions")


def random_case(rng: np.random.Generator) -> tuple[TripletSet, relations.ScriptedOracle]:
    """A triplet set over 2-6 categories, usually with background among them,
    and an oracle that answers most questions, some with unknown or neither."""
    roster = [f"c{i}" for i in range(int(rng.integers(2, 7)))]
    if rng.random() < 0.7:
        roster.insert(int(rng.integers(0, len(roster) + 1)), BACKGROUND)
    candidates = [(s, r, o) for s in roster for o in roster if s != o for r in Relation]
    picks = rng.choice(len(candidates), size=int(rng.integers(0, min(len(candidates), 24) + 1)), replace=False)
    triplets = tuple(
        SpatialTriplet(*candidates[int(p)], stage=STAGES[int(rng.integers(0, len(STAGES)))]) for p in picks
    )
    holds = {
        key: ("yes", "no", "unknown")[int(rng.choice(3, p=[0.7, 0.15, 0.15]))]
        for key in candidates
        if rng.random() < 0.9
    }
    choose = {
        (s, r, opposite(r), o): ("first", "second", "neither")[int(rng.integers(0, 3))]
        for s, r, o in candidates
        if rng.random() < 0.9
    }
    return TripletSet(triplets, tuple(roster)), ScriptedOracle(holds, choose)


def test_every_derived_set_passes_the_full_check(monkeypatch):
    derived: list[TripletSet] = []

    def recording(fn):
        def wrapper(triplets, *args):
            result = fn(triplets, *args)
            derived.extend((triplets, result))
            return result

        return wrapper

    for name in STAGE_FUNCTIONS:
        monkeypatch.setattr(relations, name, recording(getattr(relations, name)))

    rng = np.random.default_rng(2024)
    totals = dict.fromkeys(("background_dropped", "augmented", "validated", "contradiction_pairs",
                            "resolution_dropped", "final"), 0)
    for _ in range(1000):
        initial, oracle = random_case(rng)
        derived.clear()
        result = calibrate(initial, oracle)
        # The background-filtered set enters augmentation; every stage's
        # result is recorded after its input.
        assert len(derived) == 2 * len(STAGE_FUNCTIONS)
        assert derived[-1] is result.triplets
        for s in derived:
            assert s.categories == initial.categories
            assert TripletSet(s.triplets, s.categories) == s
        for key in totals:
            totals[key] += getattr(result.audit, key)
    # The cases reach every branch: background to drop, triplets that fail
    # validation, contradictions, and resolutions that drop or keep.
    assert all(count > 0 for count in totals.values()), totals
    assert totals["augmented"] > totals["validated"] > totals["final"]


def test_calibrate_checks_only_its_input(monkeypatch):
    initial, oracle = random_case(np.random.default_rng(10))
    checked: list[int] = []
    original = TripletSet.__post_init__

    def counting(self):
        checked.append(len(self.triplets))
        original(self)

    monkeypatch.setattr(TripletSet, "__post_init__", counting)
    TripletSet(initial.triplets, initial.categories)
    assert checked == [len(initial)]
    checked.clear()
    result = calibrate(initial, oracle)
    # Every stage has work: background to drop, reverses to add, triplets
    # that fail validation, and contradictions to resolve.
    audit = result.audit
    assert audit.background_dropped > 0 and audit.augmented > audit.initial - audit.background_dropped
    assert audit.augmented > audit.validated and audit.resolution_dropped > 0 and audit.final > 0
    assert checked == []


def test_spatial_triplet_construction_and_dataclass_behaviour():
    t = SpatialTriplet("a", Relation.LEFT, "b")
    assert (t.subject, t.relation, t.object, t.stage) == ("a", Relation.LEFT, "b", "initial")
    assert SpatialTriplet(subject="a", relation=Relation.LEFT, object="b") == t
    assert SpatialTriplet("a", Relation.LEFT, "b", "validated").stage == "validated"
    assert SpatialTriplet("a", Relation.LEFT, "b", stage="resolved") != t
    assert [f.name for f in fields(SpatialTriplet)] == ["subject", "relation", "object", "stage"]

    # The subject/object check runs before the stage check.
    with pytest.raises(FormatError, match=r"^triplet subject and object must differ, both are 'a'$"):
        SpatialTriplet("a", Relation.LEFT, "a", "bogus")
    with pytest.raises(FormatError, match=r"^unknown stage 'bogus'$"):
        SpatialTriplet("a", Relation.LEFT, "b", "bogus")

    assert hash(t) == hash(("a", Relation.LEFT, "b", "initial"))
    assert repr(t) == "SpatialTriplet(subject='a', relation=<Relation.LEFT: 'left'>, object='b', stage='initial')"
    assert replace(t, stage="validated") == SpatialTriplet("a", Relation.LEFT, "b", "validated")
    with pytest.raises(FormatError, match="must differ"):
        replace(t, object="a")
    with pytest.raises(FrozenInstanceError):
        t.stage = "validated"

    copy = pickle.loads(pickle.dumps(t))
    assert copy == t and hash(copy) == hash(t) and copy.stage == "initial"


def test_derived_sets_survive_a_pickle_round_trip():
    initial, oracle = random_case(np.random.default_rng(11))
    result = calibrate(initial, oracle)
    # Background filtering leaves a nonempty derived set to pickle.
    assert (result.audit.background_dropped, len(result.triplets)) == (8, 2)
    for s in (initial, result.triplets):
        copy = pickle.loads(pickle.dumps(s))
        assert copy == s and copy.keys() == s.keys()
