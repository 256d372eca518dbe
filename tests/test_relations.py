from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from relfine.errors import FormatError, UnknownCategoryError, write_json_object
from relfine.grid import LabelMap
from relfine.relations import (
    ContradictionPair,
    STAGES,
    Relation,
    ScriptedOracle,
    SpatialTriplet,
    TripletSet,
    augment_bidirectional,
    calibrate,
    detect_contradictions,
    geometric_oracle,
    load_scripted_oracle,
    load_triplets,
    opposite,
    resolve_contradictions,
    save_triplets,
    validate_polar,
)

FIXTURES = Path(__file__).parent / "fixtures"


def triplet(s, r, o, stage="initial"):
    return SpatialTriplet(s, r, o, stage=stage)


def tset(*triplets, roster=None):
    names = set()
    for t in triplets:
        names.update((t.subject, t.object))
    return TripletSet(tuple(triplets), tuple(roster) if roster else tuple(sorted(names)))


class PermissiveOracle:
    def holds(self, s, r, o):
        return "yes"

    def choose(self, s, r1, r2, o):
        return "first"


# --------------------------------------------------------------------------
# opposite


def test_opposite_pairs():
    assert opposite(Relation.RIGHT) is Relation.LEFT
    assert opposite(Relation.ABOVE) is Relation.BELOW


def test_opposite_is_involutive():
    for r in Relation:
        assert opposite(opposite(r)) is r


# --------------------------------------------------------------------------
# triplet and set invariants


def test_triplet_rejects_self_relation():
    with pytest.raises(FormatError, match="must differ"):
        triplet("cat", Relation.LEFT, "cat")


def test_set_rejects_duplicates_and_unknown_names():
    t = triplet("cat", Relation.RIGHT, "person")
    with pytest.raises(FormatError, match="duplicate"):
        TripletSet((t, triplet("cat", Relation.RIGHT, "person", stage="validated")), ("cat", "person"))
    with pytest.raises(UnknownCategoryError):
        TripletSet((t,), ("cat",))


def test_set_reports_the_first_offender_in_order():
    a_b = triplet("a", Relation.LEFT, "b")
    ghost = triplet("a", Relation.ABOVE, "ghost")
    with pytest.raises(FormatError, match=r"^duplicate triplet <a, left, b>$"):
        TripletSet((a_b, a_b, ghost), ("a", "b"))
    with pytest.raises(UnknownCategoryError, match=r"^triplet <a, above, ghost> names 'ghost', not in roster$"):
        TripletSet((a_b, ghost, a_b), ("a", "b"))


# --------------------------------------------------------------------------
# augment_bidirectional


def test_augment_adds_reverse_pair():
    out = augment_bidirectional(tset(triplet("cat", Relation.RIGHT, "person")))
    assert out.keys() == {
        ("cat", Relation.RIGHT, "person"),
        ("person", Relation.LEFT, "cat"),
    }
    by_key = {t.key: t for t in out}
    assert by_key[("cat", Relation.RIGHT, "person")].stage == "initial"
    assert by_key[("person", Relation.LEFT, "cat")].stage == "bidirectional"


def test_augment_empty_set():
    out = augment_bidirectional(TripletSet((), ("a", "b")))
    assert len(out) == 0


def test_augment_skips_existing_reverse():
    # Hand application of the rule: both directions already present.
    original = tset(triplet("a", Relation.ABOVE, "b"), triplet("b", Relation.BELOW, "a"))
    out = augment_bidirectional(original)
    assert out.keys() == original.keys()
    assert len(out) == 2


def test_augment_is_idempotent():
    rng = np.random.default_rng(5)
    roster = ("a", "b", "c", "d")
    relations = list(Relation)
    for _ in range(50):
        seen = set()
        triplets = []
        for _ in range(rng.integers(0, 8)):
            s, o = rng.choice(len(roster), size=2, replace=False)
            key = (roster[s], relations[rng.integers(0, 4)], roster[o])
            if key not in seen:
                seen.add(key)
                triplets.append(SpatialTriplet(*key))
        once = augment_bidirectional(TripletSet(tuple(triplets), roster))
        twice = augment_bidirectional(once)
        assert [t.key for t in twice] == [t.key for t in once]


# --------------------------------------------------------------------------
# validate_polar


def test_validate_keeps_double_yes():
    holds = {
        ("building", Relation.BELOW, "sky"): "yes",
        ("sky", Relation.ABOVE, "building"): "yes",
    }
    out = validate_polar(tset(triplet("building", Relation.BELOW, "sky")), ScriptedOracle(holds, {}))
    assert len(out) == 1
    assert out.triplets[0].stage == "validated"


def test_validate_drops_failed_reflection():
    # Conjunction truth table: yes AND (no | unknown) -> dropped.
    for reflection in ("no", "unknown"):
        holds = {
            ("a", Relation.LEFT, "b"): "yes",
            ("b", Relation.RIGHT, "a"): reflection,
        }
        out = validate_polar(tset(triplet("a", Relation.LEFT, "b")), ScriptedOracle(holds, {}))
        assert len(out) == 0


def test_validate_empty_set():
    assert len(validate_polar(TripletSet((), ("a", "b")), PermissiveOracle())) == 0


def test_validate_output_is_subset_of_input():
    rng = np.random.default_rng(9)
    roster = ("a", "b", "c")
    answers = ["yes", "no", "unknown"]
    for _ in range(30):
        triplets = tset(
            triplet("a", Relation.LEFT, "b"),
            triplet("b", Relation.ABOVE, "c"),
            triplet("c", Relation.RIGHT, "a"),
            roster=roster,
        )
        holds = {}
        for t in triplets:
            holds[t.key] = answers[rng.integers(0, 3)]
            rev = t.reversed()
            holds[rev.key] = answers[rng.integers(0, 3)]
        out = validate_polar(triplets, ScriptedOracle(holds, {}))
        assert out.keys() <= triplets.keys()


# --------------------------------------------------------------------------
# detect_contradictions


def test_detect_cyclic_pair():
    pairs = detect_contradictions(
        tset(triplet("person", Relation.RIGHT, "cat"), triplet("cat", Relation.RIGHT, "person"))
    )
    assert len(pairs) == 1
    assert pairs[0].kind == "cyclic"


def test_detect_directional_pair():
    pairs = detect_contradictions(
        tset(triplet("person", Relation.RIGHT, "cat"), triplet("person", Relation.LEFT, "cat"))
    )
    assert len(pairs) == 1
    assert pairs[0].kind == "directional"


def test_complementary_pair_is_not_a_contradiction():
    pairs = detect_contradictions(
        tset(triplet("cat", Relation.RIGHT, "person"), triplet("person", Relation.LEFT, "cat"))
    )
    assert pairs == []


def all_pairs_scan(triplets):
    """Reference: test every unordered pair against both patterns."""
    items = triplets.triplets
    pairs = []
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            a, b = items[i], items[j]
            if (a.subject, a.relation, a.object) == (b.object, b.relation, b.subject):
                pairs.append(ContradictionPair(a, b, "cyclic"))
            elif (a.subject, a.relation, a.object) == (b.subject, opposite(b.relation), b.object):
                pairs.append(ContradictionPair(a, b, "directional"))
    return pairs


def test_detect_matches_all_pairs_scan():
    rng = np.random.default_rng(7)
    relations = list(Relation)
    sets_with_both_partners = 0
    for _ in range(300):
        names = [f"c{i}" for i in range(int(rng.integers(2, 25)))]
        keys: dict = {}
        for _ in range(int(rng.integers(0, 40))):
            s, o = rng.choice(len(names), size=2, replace=False)
            keys[(names[s], relations[int(rng.integers(4))], names[o])] = None
        # Give some triplets their cyclic and/or directional partner, so small
        # and large rosters alike hold contradictions of both kinds.
        for s, r, o in list(keys):
            if rng.random() < 0.3:
                keys[(o, r, s)] = None
            if rng.random() < 0.3:
                keys[(s, opposite(r), o)] = None
        order = rng.permutation(len(keys))
        listed = list(keys)
        triplets = tset(*(triplet(*listed[k]) for k in order), roster=names)

        expected = all_pairs_scan(triplets)
        assert detect_contradictions(triplets) == expected
        present = triplets.keys()
        if any(
            (t.object, t.relation, t.subject) in present
            and (t.subject, opposite(t.relation), t.object) in present
            for t in triplets
        ):
            sets_with_both_partners += 1
    assert sets_with_both_partners > 0


# --------------------------------------------------------------------------
# resolve_contradictions


def test_resolve_keeps_oracle_choice():
    s = tset(triplet("a", Relation.RIGHT, "b"), triplet("b", Relation.RIGHT, "a"))
    pairs = detect_contradictions(s)
    out = resolve_contradictions(s, pairs, ScriptedOracle({}, {
        ("a", Relation.RIGHT, Relation.LEFT, "b"): "first",
    }))
    assert out.keys() == {("a", Relation.RIGHT, "b")}
    assert out.triplets[0].stage == "resolved"


def test_resolve_neither_discards_both():
    s = tset(triplet("a", Relation.RIGHT, "b"), triplet("a", Relation.LEFT, "b"))
    pairs = detect_contradictions(s)
    out = resolve_contradictions(s, pairs, ScriptedOracle({}, {}))
    assert len(out) == 0


def test_resolve_no_pairs_is_identity():
    s = tset(triplet("a", Relation.RIGHT, "b"))
    assert resolve_contradictions(s, [], PermissiveOracle()).keys() == s.keys()


def test_resolve_dropped_stays_dropped():
    # <a,R,b> is kept by the first pair but dropped by the second: it stays out.
    s = tset(
        triplet("a", Relation.RIGHT, "b"),
        triplet("b", Relation.RIGHT, "a"),
        triplet("a", Relation.LEFT, "b"),
    )
    pairs = detect_contradictions(s)
    assert len(pairs) == 2
    oracle = ScriptedOracle({}, {
        # Pair 1 (cyclic, asked from a's perspective): keep <a,R,b>.
        # Pair 2 (directional, same query key) would also keep <a,R,b>; make
        # the shared query drop it instead via the second option.
        ("a", Relation.RIGHT, Relation.LEFT, "b"): "second",
    })
    out = resolve_contradictions(s, pairs, oracle)
    # "second" on the cyclic pair keeps <b,R,a> and drops <a,R,b>; "second"
    # on the directional pair keeps <a,L,b> and drops <a,R,b> again. But
    # <b,R,a> and <a,L,b> form no contradiction, so both survive.
    assert out.keys() == {("b", Relation.RIGHT, "a"), ("a", Relation.LEFT, "b")}
    assert detect_contradictions(out) == []


# --------------------------------------------------------------------------
# calibrate


def test_calibrate_hand_trace():
    result = calibrate(tset(triplet("cat", Relation.RIGHT, "person")), PermissiveOracle())
    assert result.triplets.keys() == {
        ("cat", Relation.RIGHT, "person"),
        ("person", Relation.LEFT, "cat"),
    }
    assert result.audit.to_dict() == {
        "initial": 1,
        "background_dropped": 0,
        "augmented": 2,
        "validated": 2,
        "contradiction_pairs": 0,
        "resolution_dropped": 0,
        "final": 2,
    }


def test_calibrate_empty():
    result = calibrate(TripletSet((), ("a", "b")), PermissiveOracle())
    assert len(result.triplets) == 0
    assert result.audit.final == 0


def test_calibrate_drops_background_by_default():
    s = tset(
        triplet("cat", Relation.RIGHT, "background"),
        triplet("cat", Relation.ABOVE, "dog"),
        roster=("background", "cat", "dog"),
    )
    result = calibrate(s, PermissiveOracle())
    assert result.audit.background_dropped == 1
    assert all("background" not in (t.subject, t.object) for t in result.triplets)


def test_calibration_switches_are_not_parameters(tmp_path):
    s = tset(triplet("cat", Relation.RIGHT, "background"), roster=("background", "cat"))
    with pytest.raises(TypeError, match="drop_background"):
        calibrate(s, PermissiveOracle(), drop_background=False)
    path = tmp_path / "t.json"
    save_triplets(path, s)
    with pytest.raises(TypeError, match="swap_args"):
        load_triplets(path, swap_args=True)


def _random_set_and_oracle(rng):
    roster = tuple(f"c{i}" for i in range(rng.integers(2, 7)))
    relations = list(Relation)
    seen = set()
    triplets = []
    for _ in range(rng.integers(0, 10)):
        s, o = rng.choice(len(roster), size=2, replace=False)
        key = (roster[s], relations[rng.integers(0, 4)], roster[o])
        if key not in seen:
            seen.add(key)
            triplets.append(SpatialTriplet(*key))
    holds = {}
    choose = {}
    answers = ["yes", "yes", "no", "unknown"]
    choices = ["first", "second", "neither"]
    for s in roster:
        for o in roster:
            if s == o:
                continue
            for r in relations:
                holds[(s, r, o)] = answers[rng.integers(0, 4)]
                choose[(s, r, opposite(r), o)] = choices[rng.integers(0, 3)]
    return TripletSet(tuple(triplets), roster), ScriptedOracle(holds, choose)


def test_calibrate_output_contradiction_free_and_subset():
    rng = np.random.default_rng(17)
    for _ in range(100):
        triplets, oracle = _random_set_and_oracle(rng)
        augmented = augment_bidirectional(triplets)
        result = calibrate(triplets, oracle)
        out = result.triplets
        assert out.keys() <= augmented.keys()
        # Brute-force all-pairs scan, independent of detect_contradictions.
        items = list(out)
        for i in range(len(items)):
            for j in range(i + 1, len(items)):
                a, b = items[i], items[j]
                cyclic = (
                    a.subject == b.object and a.object == b.subject and a.relation == b.relation
                )
                directional = (
                    a.subject == b.subject
                    and a.object == b.object
                    and a.relation == opposite(b.relation)
                )
                assert not cyclic and not directional, f"{a} vs {b}"


# --------------------------------------------------------------------------
# geometric oracle


def test_geometric_oracle_column_comparison():
    labels = LabelMap(np.array([[1, 0, 0, 2]]), 3)
    oracle = geometric_oracle(labels, ("bg", "o", "s"))
    assert oracle.holds("s", Relation.RIGHT, "o") == "yes"
    assert oracle.holds("s", Relation.LEFT, "o") == "no"
    assert oracle.choose("s", Relation.RIGHT, Relation.LEFT, "o") == "first"
    assert oracle.choose("s", Relation.LEFT, Relation.RIGHT, "o") == "second"


def test_geometric_oracle_equal_centroids_hold_nothing():
    labels = LabelMap(np.array([[1], [2], [1]]), 3)  # same centroid column
    oracle = geometric_oracle(labels, ("bg", "a", "b"))
    assert oracle.holds("a", Relation.RIGHT, "b") == "no"
    assert oracle.holds("a", Relation.LEFT, "b") == "no"
    assert oracle.choose("a", Relation.LEFT, Relation.RIGHT, "b") == "neither"


def test_geometric_oracle_absent_category_is_no():
    labels = LabelMap(np.array([[1, 1]]), 3)
    oracle = geometric_oracle(labels, ("bg", "a", "ghost"))
    for r in Relation:
        assert oracle.holds("ghost", r, "a") == "no"
        assert oracle.holds("a", r, "ghost") == "no"


def test_geometric_oracle_antisymmetry():
    rng = np.random.default_rng(23)
    for _ in range(20):
        labels = LabelMap(rng.integers(0, 4, size=(6, 6)), 4)
        roster = ("bg", "a", "b", "c")
        oracle = geometric_oracle(labels, roster)
        for s in roster[1:]:
            for o in roster[1:]:
                if s == o:
                    continue
                for r in Relation:
                    if oracle.holds(s, r, o) == "yes":
                        assert oracle.holds(s, opposite(r), o) == "no"


# --------------------------------------------------------------------------
# scripted oracle and JSON interchange


def test_scripted_oracle_lookup_and_defaults():
    oracle = ScriptedOracle(
        {("cat", Relation.RIGHT, "person"): "yes"},
        {("sky", Relation.ABOVE, Relation.BELOW, "building"): "neither"},
    )
    assert oracle.holds("cat", Relation.RIGHT, "person") == "yes"
    assert oracle.holds("cat", Relation.LEFT, "person") == "unknown"
    assert oracle.choose("sky", Relation.ABOVE, Relation.BELOW, "building") == "neither"
    assert oracle.choose("x", Relation.LEFT, Relation.RIGHT, "y") == "neither"


def test_triplet_json_round_trip(tmp_path):
    original = tset(
        triplet("cat", Relation.RIGHT, "person"),
        triplet("person", Relation.ABOVE, "mat", stage="validated"),
        roster=("cat", "person", "mat"),
    )
    path = tmp_path / "triplets.json"
    save_triplets(path, original)
    loaded = load_triplets(path)
    assert loaded.keys() == original.keys()
    assert [t.stage for t in loaded] == [t.stage for t in original]


# Names that exercise every escape the JSON encoder makes: quotes,
# backslashes, control characters, separators past ASCII and CJK.
AWKWARD_NAMES = ("a", "b c", 'say "hi"', "back\\slash", "nul\x00", "tab\t", "del\x7f", "line\u2028sep", "猫", "é")


def test_save_triplets_writes_the_bytes_of_write_json_object(tmp_path):
    rng = np.random.default_rng(3)
    for case in range(200):
        size = int(rng.integers(0, len(AWKWARD_NAMES) + 1))
        roster = tuple(AWKWARD_NAMES[i] for i in rng.permutation(len(AWKWARD_NAMES))[:size])
        chosen = {}
        for _ in range(int(rng.integers(0, 12)) if size >= 2 else 0):
            s, o = rng.choice(size, 2, replace=False)
            r = list(Relation)[int(rng.integers(0, 4))]
            chosen[(roster[s], r, roster[o])] = STAGES[int(rng.integers(0, len(STAGES)))]
        triplets = TripletSet(tuple(triplet(s, r, o, stage) for (s, r, o), stage in chosen.items()), roster)
        doc = {
            "categories": list(triplets.categories),
            "triplets": [
                {"subject": t.subject, "relation": t.relation.value, "object": t.object, "stage": t.stage}
                for t in triplets
            ],
        }
        save_triplets(tmp_path / "saved.json", triplets)
        write_json_object(tmp_path / "expected.json", doc)
        assert (tmp_path / "saved.json").read_bytes() == (tmp_path / "expected.json").read_bytes(), case


def test_load_triplets_collapses_duplicates_keeping_earliest_stage(tmp_path):
    path = tmp_path / "t.json"
    path.write_text(json.dumps({
        "categories": ["a", "b"],
        "triplets": [
            {"subject": "a", "relation": "right", "object": "b", "stage": "validated"},
            {"subject": "a", "relation": "left", "object": "b"},
            {"subject": "a", "relation": "right", "object": "b", "stage": "initial"},
        ],
    }))
    loaded = load_triplets(path)
    assert len(loaded) == 2
    by_key = {t.key: t for t in loaded}
    assert by_key[("a", Relation.RIGHT, "b")].stage == "initial"


def test_load_triplets_reports_entry_and_line(tmp_path):
    path = tmp_path / "t.json"
    path.write_text(json.dumps({
        "categories": ["a", "b"],
        "triplets": [
            {"subject": "a", "relation": "right", "object": "b"},
            {"subject": "a", "relation": "diagonal", "object": "b"},
        ],
    }))
    with pytest.raises(FormatError, match=r"triplets\[1\].*diagonal"):
        load_triplets(path)
    path.write_text('{"categories": ["a"],\n  "triplets": [}')
    with pytest.raises(FormatError, match="line 2"):
        load_triplets(path)


def test_load_scripted_oracle(tmp_path):
    path = tmp_path / "oracle.json"
    path.write_text(json.dumps({
        "holds": [{"s": "cat", "r": "right", "o": "person", "a": "yes"}],
        "choose": [{"s": "sky", "r1": "above", "r2": "below", "o": "building", "a": "first"}],
    }))
    oracle = load_scripted_oracle(path)
    assert oracle.holds("cat", Relation.RIGHT, "person") == "yes"
    assert oracle.choose("sky", Relation.ABOVE, Relation.BELOW, "building") == "first"


def test_load_scripted_oracle_rejects_malformed_entries(tmp_path):
    path = tmp_path / "oracle.json"
    path.write_text(json.dumps({"holds": [{"s": "cat", "r": "right", "a": "yes"}]}))
    with pytest.raises(FormatError, match=r"holds\[0\]"):
        load_scripted_oracle(path)
    path.write_text(json.dumps({"holds": [{"s": "c", "r": "right", "o": "p", "a": "maybe"}]}))
    with pytest.raises(FormatError, match="yes/no/unknown"):
        load_scripted_oracle(path)


VALID_TRIPLET = {"subject": "a", "relation": "left", "object": "b"}
VALID_HOLDS = {"s": "a", "r": "left", "o": "b", "a": "yes"}
VALID_CHOOSE = {"s": "a", "r1": "left", "r2": "right", "o": "b", "a": "first"}
RELATIONS = "expected one of: above, below, left, right"


@pytest.mark.parametrize(
    "loader, doc, message",
    [
        ("triplets", {"categories": [], "extra": 1}, "unknown keys ['extra']"),
        ("triplets", {"categories": ["a", "b"], "triplets": {}}, "'triplets' must be a list"),
        ("triplets", {"categories": ["a"], "triplets": [VALID_TRIPLET, 5]}, "triplets[1]: expected an object"),
        ("triplets", {"categories": [], "triplets": [{**VALID_TRIPLET, "zz": 1, "note": 2}]},
         "triplets[0]: unknown keys ['note', 'zz']"),
        ("triplets", {"categories": [], "triplets": [{"subject": "a", "object": "b"}]},
         "triplets[0]: missing key 'relation'"),
        ("triplets", {"categories": [], "triplets": [{"relation": "left", "object": "b"}]},
         "triplets[0]: missing key 'subject'"),
        ("triplets", {"categories": [], "triplets": [{**VALID_TRIPLET, "relation": "up"}]},
         f"triplets[0]: unknown relation 'up', {RELATIONS}"),
        ("triplets", {"categories": [], "triplets": [{**VALID_TRIPLET, "relation": ["left"]}]},
         f"triplets[0]: unknown relation ['left'], {RELATIONS}"),
        ("triplets", {"categories": [], "triplets": [{**VALID_TRIPLET, "object": 3}]},
         "triplets[0]: 'object' must be a string, got 3"),
        ("triplets", {"categories": [], "triplets": [{**VALID_TRIPLET, "stage": "final"}]},
         "triplets[0]: unknown stage 'final'"),
        ("triplets", {"categories": [], "triplets": [{**VALID_TRIPLET, "object": "a", "stage": "final"}]},
         "triplets[0]: triplet subject and object must differ, both are 'a'"),
        ("triplets", {"categories": [], "triplets": [{**VALID_TRIPLET, "object": "a"}]},
         "triplets[0]: triplet subject and object must differ, both are 'a'"),
        ("oracle", {"holds": [], "extra": 1}, "unknown keys ['extra']"),
        ("oracle", {"holds": {}}, "'holds' must be a list"),
        ("oracle", {"choose": 3}, "'choose' must be a list"),
        ("oracle", {"holds": [VALID_HOLDS, "x"]}, "holds[1]: expected keys s, r, o, a"),
        ("oracle", {"holds": [{**VALID_HOLDS, "extra": 1}]}, "holds[0]: expected keys s, r, o, a"),
        ("oracle", {"choose": [{"s": "a", "o": "b", "a": "first"}]}, "choose[0]: expected keys s, r1, r2, o, a"),
        ("oracle", {"holds": [{**VALID_HOLDS, "r": "up"}]}, f"holds[0]: unknown relation 'up', {RELATIONS}"),
        ("oracle", {"choose": [VALID_CHOOSE, {**VALID_CHOOSE, "r2": ["right"]}]},
         f"choose[1]: unknown relation ['right'], {RELATIONS}"),
        ("oracle", {"holds": [{**VALID_HOLDS, "o": None}]}, "holds[0]: 'o' must be a string, got None"),
        ("oracle", {"choose": [{**VALID_CHOOSE, "s": ["a"]}]}, "choose[0]: 's' must be a string, got ['a']"),
        ("oracle", {"holds": [{**VALID_HOLDS, "a": "maybe"}]},
         "holds[0]: answer must be yes/no/unknown, got 'maybe'"),
        ("oracle", {"choose": [{**VALID_CHOOSE, "a": "yes"}]},
         "choose[0]: answer must be first/second/neither, got 'yes'"),
    ],
)
def test_loaders_report_each_malformed_entry_exactly(tmp_path, loader, doc, message):
    path = tmp_path / f"{loader}.json"
    path.write_text(json.dumps(doc))
    load = load_triplets if loader == "triplets" else load_scripted_oracle
    with pytest.raises(FormatError) as caught:
        load(path)
    assert str(caught.value) == f"{path}: {message}"


# --------------------------------------------------------------------------
# recorded lighthouse log: full pipeline replay


def test_lighthouse_log_audit_is_internally_consistent():
    triplets = load_triplets(FIXTURES / "lighthouse_log" / "triplets.json")
    oracle = load_scripted_oracle(FIXTURES / "lighthouse_log" / "oracle.json")
    result = calibrate(triplets, oracle)
    audit = result.audit

    # Independent recomputation of the augmentation count: dedup of the
    # initial keys united with their reverses.
    keys = triplets.keys()
    reversed_keys = {(o, opposite(r), s) for (s, r, o) in keys}
    assert audit.augmented == len(keys | reversed_keys)
    assert audit.initial == len(triplets) == 81
    assert audit.final == audit.validated - audit.resolution_dropped
    assert audit.final == len(result.triplets)
    assert audit.contradiction_pairs > 0
    assert detect_contradictions(result.triplets) == []
    # The pinned building/sky group resolves to the true side.
    assert ("building", Relation.RIGHT, "sky") in result.triplets.keys()
    assert ("building", Relation.LEFT, "sky") not in result.triplets.keys()
    # The pinned tree/hill group discards both sides.
    for r in (Relation.ABOVE, Relation.BELOW):
        assert ("tree", r, "hill") not in result.triplets.keys()
