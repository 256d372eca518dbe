"""The file loaders against the loaders they replaced.

`load_triplets` and `load_scripted_oracle` test each entry once with a cheap
check and send only the entries that fail it through the ordered checks;
`load_triplets` also maps names to roster indices as it reads.
`reference_kernels` keeps the loaders that ran every check on every entry.
Seeded valid documents take 1-3 random edits each: a field replaced by a
wrong type, an unknown name or relation, another valid value or its own
subject; a key dropped or added; an entry replaced by a non-object or
repeated later with another stage or answer; a roster name repeated,
dropped or made a number; a table made a non-list. Both loaders must give
the same roster and codes, the same table items in the same order, or the
same exception type and message.
"""

from __future__ import annotations

import copy
import json
from collections import Counter

import numpy as np
from reference_kernels import reference_load_scripted_oracle, reference_load_triplets

from relfine.errors import FormatError, UnknownCategoryError
from relfine.relations import STAGES, load_scripted_oracle, load_triplets

CASES = 1200  # per loader
NAMES = ("a", "b", "c", "d")
RELATIONS = ("above", "below", "left", "right")
HOLDS_ANSWERS = ("yes", "no", "unknown")
CHOOSE_ANSWERS = ("first", "second", "neither")
NOT_NAMES = (3, 2.5, None, True, ["a"], {"s": "a"})
ENTRY_KEYS = ("subject", "relation", "object", "stage", "s", "r", "r1", "r2", "o", "a", "extra")


def _pick(rng, options):
    return options[int(rng.integers(len(options)))]


def _entry(rng, fields: dict) -> dict:
    """`fields` as an object whose keys come in a random order."""
    keys = list(fields)
    return {keys[i]: fields[keys[i]] for i in rng.permutation(len(keys))}


def valid_triplet_doc(rng) -> dict:
    roster = list(NAMES[: int(rng.integers(2, len(NAMES) + 1))])
    entries = []
    for _ in range(int(rng.integers(0, 9))):
        s, o = rng.choice(len(roster), 2, replace=False)
        fields = {"subject": roster[s], "relation": _pick(rng, RELATIONS), "object": roster[o]}
        if rng.random() < 0.5:
            fields["stage"] = _pick(rng, STAGES)
        entries.append(_entry(rng, fields))
    return {"categories": roster, "triplets": entries}


def valid_oracle_doc(rng) -> dict:
    holds = [
        _entry(rng, {"s": _pick(rng, NAMES), "r": _pick(rng, RELATIONS), "o": _pick(rng, NAMES),
                     "a": _pick(rng, HOLDS_ANSWERS)})
        for _ in range(int(rng.integers(0, 7)))
    ]
    choose = [
        _entry(rng, {"s": _pick(rng, NAMES), "r1": _pick(rng, RELATIONS), "r2": _pick(rng, RELATIONS),
                     "o": _pick(rng, NAMES), "a": _pick(rng, CHOOSE_ANSWERS)})
        for _ in range(int(rng.integers(0, 5)))
    ]
    return {"holds": holds, "choose": choose}


def _value(rng, key: str, entry: dict):
    """A replacement value for `key`: wrong-typed, unknown, valid or the entry's own other name."""
    valid = {"subject": NAMES, "object": NAMES, "s": NAMES, "o": NAMES, "relation": RELATIONS,
             "r": RELATIONS, "r1": RELATIONS, "r2": RELATIONS, "stage": STAGES,
             "a": HOLDS_ANSWERS + CHOOSE_ANSWERS}.get(key, NAMES)
    kind = int(rng.integers(5))
    if kind == 0:
        return _pick(rng, NOT_NAMES)
    if kind == 1:
        return _pick(rng, ("zz", "up", "final", "maybe", ""))
    if kind == 2:
        other = {"subject": "object", "object": "subject", "s": "o", "o": "s"}.get(key)
        if other in entry:
            return copy.deepcopy(entry[other])
    return _pick(rng, valid)


def mutate(rng, doc: dict, table_names: tuple[str, ...]) -> None:
    """One random edit of `doc`, in place."""
    tables = [doc[name] for name in table_names if isinstance(doc.get(name), list)]
    entries = [(table, i) for table in tables for i in range(len(table))]
    kind = int(rng.integers(8))
    if kind <= 2 and entries:
        table, i = entries[int(rng.integers(len(entries)))]
        entry = table[i]
        if not isinstance(entry, dict):
            table[i] = _pick(rng, NOT_NAMES + ("x",))
        elif kind == 0 and entry:
            key = _pick(rng, list(entry))
            entry[key] = _value(rng, key, entry)
        elif kind == 1 and entry:
            del entry[_pick(rng, list(entry))]
        else:
            key = _pick(rng, ENTRY_KEYS)
            entry[key] = _value(rng, key, entry)
    elif kind == 3 and entries:
        table, i = entries[int(rng.integers(len(entries)))]
        table[i] = _pick(rng, NOT_NAMES[:4] + ("x", []))
    elif kind in (4, 5) and entries:
        table, i = entries[int(rng.integers(len(entries)))]
        repeat = copy.deepcopy(table[i])
        if isinstance(repeat, dict):
            for key in ("stage", "a"):
                if key in repeat or (key == "stage" and "subject" in repeat and rng.random() < 0.5):
                    repeat[key] = _pick(rng, STAGES if key == "stage" else HOLDS_ANSWERS + CHOOSE_ANSWERS)
        table.insert(int(rng.integers(i + 1, len(table) + 1)), repeat)
    elif kind == 6 and "categories" in doc and isinstance(doc["categories"], list) and doc["categories"]:
        roster = doc["categories"]
        edit = int(rng.integers(3))
        if edit == 0:
            roster.insert(int(rng.integers(len(roster) + 1)), _pick(rng, roster))
        elif edit == 1:
            del roster[int(rng.integers(len(roster)))]
        else:
            roster[int(rng.integers(len(roster)))] = _pick(rng, NOT_NAMES)
    elif rng.random() < 0.3:
        doc[_pick(rng, table_names + ("extra",))] = _pick(rng, ({}, 3, "x", None))


def _outcome(load, path):
    try:
        return load(path)
    except (FormatError, UnknownCategoryError) as exc:
        return type(exc), str(exc)


def _run(tmp_path, seed: int, valid_doc, table_names, load, reference, same) -> Counter:
    rng = np.random.default_rng(seed)
    path = tmp_path / "doc.json"
    seen = Counter()
    for case in range(CASES):
        doc = valid_doc(rng)
        for _ in range(int(rng.integers(1, 4))):
            mutate(rng, doc, table_names)
        path.write_text(json.dumps(doc))
        got, want = _outcome(load, path), _outcome(reference, path)
        if isinstance(want, tuple) and isinstance(want[0], type):
            assert got == want, (case, doc)
            # The error's class and the first word after the path: a table name, "category", "triplet", ...
            seen[want[0].__name__, want[1].removeprefix(f"{path}: ").split("[")[0].split(" ")[0]] += 1
        else:
            assert not (isinstance(got, tuple) and isinstance(got[0], type)), (case, doc, got)
            assert same(got, want), (case, doc)
            seen["valid", ""] += 1
    return seen


def _same_set(got, want) -> bool:
    roster, codes = want
    return got.categories == roster and got.codes.dtype == codes.dtype and np.array_equal(got.codes, codes)


def _same_tables(got, want) -> bool:
    holds, choose = want
    return list(got._holds.items()) == list(holds.items()) and list(got._choose.items()) == list(choose.items())


def test_load_triplets_matches_the_reference_loader(tmp_path):
    seen = _run(tmp_path, 0, valid_triplet_doc, ("triplets",), load_triplets, reference_load_triplets, _same_set)
    # Every outcome occurs often: valid sets, entry errors, a duplicate roster, names outside it.
    assert seen["valid", ""] >= 100 and seen["FormatError", "triplets"] >= 100, seen
    assert seen["FormatError", "category"] >= 20 and seen["UnknownCategoryError", "triplet"] >= 20, seen


def test_load_scripted_oracle_matches_the_reference_loader(tmp_path):
    seen = _run(tmp_path, 1, valid_oracle_doc, ("holds", "choose"), load_scripted_oracle,
                reference_load_scripted_oracle, _same_tables)
    assert seen["valid", ""] >= 100, seen
    assert seen["FormatError", "holds"] >= 100 and seen["FormatError", "choose"] >= 100, seen
