"""Seeded mutation test: corrupted inputs end in a documented exit code.

Each input a user hands the CLI (a run config, triplet and oracle files, and
a scene bundle's spec.json, triplets.json, PGM labels and RSGF grids) is
corrupted one mutation at a time and run through cli.main in-process. A
mutation swaps a value for another type (list, dict, None, bool), puts in
-1, 10**400, 1e308 or NaN, deletes or adds a key, or truncates the file. Every
call must return 0, 2, 3 or 4 and raise nothing; it may return 0 only when
the mutation leaves the input valid, as the schemas below state.
"""

from __future__ import annotations

import json
import math
import random
import shutil
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import pytest

from relfine.cli import main

SEED = 20240613
BIG = 10**400
SWAPS = (
    ("list", ["x"]),
    ("empty list", []),
    ("dict", {"x": 1}),
    ("None", None),
    ("bool", True),
    ("-1", -1),
    ("10**400", BIG),
    ("1e308", 1e308),
    ("NaN", math.nan),
)


# --------------------------------------------------------------------------
# schemas: what each JSON input accepts, checked one mutation at a time


def name(v) -> bool:
    return isinstance(v, str)


def one_of(*choices: str) -> Callable[[object], bool]:
    return lambda v: isinstance(v, str) and v in choices


def integer(lo: int, hi: float) -> Callable[[object], bool]:
    return lambda v: type(v) is int and lo <= v <= hi


def real(lo: float, hi: float) -> Callable[[object], bool]:
    def check(v) -> bool:
        try:
            return type(v) in (int, float) and math.isfinite(v) and lo <= v <= hi
        except OverflowError:  # an int too large for a float
            return False

    return check


@dataclass(frozen=True)
class Obj:
    """A JSON object: field -> (schema, required). Unknown keys are invalid."""

    fields: dict
    nullable: bool = False


@dataclass(frozen=True)
class Arr:
    item: object
    nonempty: bool = False


def accepts(schema, value) -> bool:
    """Whether `value` fits `schema`. Rules across fields, such as triplet
    names lying in the roster, are left out: a mutation this calls valid may
    still be rejected, but one it calls invalid never passes."""
    if isinstance(schema, Obj):
        if value is None:
            return schema.nullable
        return (
            isinstance(value, dict)
            and value.keys() <= schema.fields.keys()
            and all(k in value for k, (_, required) in schema.fields.items() if required)
            and all(accepts(schema.fields[k][0], v) for k, v in value.items())
        )
    if isinstance(schema, Arr):
        return isinstance(value, list) and (value or not schema.nonempty) and all(
            accepts(schema.item, v) for v in value
        )
    return schema(value)


SIDE = 8
BOUNDS = ("row0", "col0", "row1", "col1")
PLACEMENT = Obj({"category": (name, True), **{key: (integer(0, SIDE), True) for key in BOUNDS}})
SPEC_FIELDS = {
    "height": (integer(1, 4096), True),
    "width": (integer(1, 4096), True),
    "placements": (Arr(PLACEMENT, nonempty=True), True),
    "noise_sigma": (real(0.0, math.inf), False),
    "confusion": (Obj({"first": (name, True), "second": (name, True), "strength": (real(0.0, 1.0), True)},
                      nullable=True), False),
    "seed": (integer(0, math.inf), False),
}
SPEC = Obj(SPEC_FIELDS)
CONFIG = Obj({
    "output_dir": (name, False),
    "scenes": (Arr(Obj({"name": (name, False), **SPEC_FIELDS})), False),
})
RELATION = one_of("left", "right", "above", "below")
TRIPLETS = Obj({
    "categories": (Arr(name), True),
    "triplets": (Arr(Obj({
        "subject": (name, True),
        "relation": (RELATION, True),
        "object": (name, True),
        "stage": (one_of("initial", "bidirectional", "validated", "resolved"), False),
    })), False),
})
ORACLE = Obj({
    "holds": (Arr(Obj({
        "s": (name, True), "r": (RELATION, True), "o": (name, True), "a": (one_of("yes", "no", "unknown"), True),
    })), False),
    "choose": (Arr(Obj({
        "s": (name, True), "r1": (RELATION, True), "r2": (RELATION, True), "o": (name, True),
        "a": (one_of("first", "second", "neither"), True),
    })), False),
})


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _paths(doc, path=()) -> Iterator[tuple]:
    yield path
    children = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in children:
        yield from _paths(value, (*path, key))


def json_mutations(doc: dict, schema) -> Iterator[tuple[str, bytes, bool]]:
    """(label, file bytes, stays valid) for every single mutation of `doc`."""
    for path in _paths(doc):
        where = "/".join(map(str, path)) or "<root>"
        for label, value in SWAPS:
            mutated = json.loads(json.dumps(doc))
            if path:
                _at(mutated, path[:-1])[path[-1]] = value
            else:
                mutated = value
            valid = isinstance(mutated, dict) and accepts(schema, mutated)
            yield f"{where} = {label}", json.dumps(mutated).encode(), valid
        node = _at(doc, path)
        if path and isinstance(_at(doc, path[:-1]), dict):
            mutated = json.loads(json.dumps(doc))
            del _at(mutated, path[:-1])[path[-1]]
            yield f"{where} deleted", json.dumps(mutated).encode(), accepts(schema, mutated)
        if isinstance(node, dict):
            mutated = json.loads(json.dumps(doc))
            _at(mutated, path)["extra"] = 1
            yield f"{where} + extra key", json.dumps(mutated).encode(), False
    yield from truncations(json.dumps(doc).encode())


def truncations(data: bytes) -> Iterator[tuple[str, bytes, bool]]:
    rng = random.Random(SEED + len(data))
    cuts = {0, 1, 2, len(data) // 2, len(data) - 1, *rng.sample(range(len(data)), min(6, len(data)))}
    for cut in sorted(cuts):
        yield f"truncated to {cut} bytes", data[:cut], False


def pgm_mutations(data: bytes) -> Iterator[tuple[str, bytes, bool]]:
    header_end = data.index(b"255\n") + 4
    yield from truncations(data)
    yield "header only, no final byte", data[: header_end - 1], False
    yield "extra pixel", data + b"\x00", False
    yield "label past the roster", data[:header_end] + b"\xff" + data[header_end + 1 :], False
    yield "width 10**400", b"P5\n" + str(BIG).encode() + data[data.index(b" ") :], False
    yield "width of 5000 digits", b"P5\n" + b"9" * 5000 + data[data.index(b" ") :], False
    yield "NaN width", b"P5\nnan" + data[data.index(b" ") :], False


def rsgf_mutations(data: bytes) -> Iterator[tuple[str, bytes, bool]]:
    yield from truncations(data)
    yield "extra byte", data + b"\x00", False
    yield "height 2**32-1", data[:5] + struct.pack("<I", 2**32 - 1) + data[9:], False
    yield "NaN value", data[:13] + struct.pack("<f", math.nan) + data[17:], False
    yield "value 1e30", data[:13] + struct.pack("<f", 1e30) + data[17:], False


# --------------------------------------------------------------------------
# inputs and the commands that read them


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("mutation")
    scene = {
        "name": "s",
        "height": SIDE,
        "width": SIDE,
        "placements": [
            {"category": "a", "row0": 1, "col0": 1, "row1": 4, "col1": 4},
            {"category": "b", "row0": 1, "col0": 5, "row1": 4, "col1": 8},
        ],
        "noise_sigma": 0.1,
        "confusion": {"first": "a", "second": "b", "strength": 0.3},
        "seed": 3,
    }
    config = {"output_dir": "scenes", "scenes": [scene]}
    (root / "config.json").write_text(json.dumps(config))
    (root / "triplets.json").write_text(json.dumps({
        "categories": ["background", "a", "b"],
        "triplets": [
            {"subject": "a", "relation": "left", "object": "b", "stage": "initial"},
            {"subject": "b", "relation": "right", "object": "a"},
        ],
    }))
    (root / "oracle.json").write_text(json.dumps({
        "holds": [{"s": "a", "r": "left", "o": "b", "a": "yes"}],
        "choose": [{"s": "a", "r1": "left", "r2": "right", "o": "b", "a": "first"}],
    }))
    assert main(["gen-scenes", str(root / "config.json")]) == 0
    shutil.copy(root / "scenes" / "s" / "gt_labels.pgm", root / "labels.pgm")
    return root


def _commands(root: Path, out: Path) -> dict[str, list[list[str]]]:
    bundle = root / "scenes" / "s"
    config, triplets, oracle = (str(root / f) for f in ("config.json", "triplets.json", "oracle.json"))
    refine = ["refine", "--scene", str(bundle), "--out", str(out / "refined")]
    calibrate = ["calibrate", "--triplets", triplets, "--out-triplets", str(out / "calibrated.json")]
    pred = out / "pred"
    return {
        "config.json": [["gen-scenes", config, "--output", str(out / "scenes")]],
        "triplets.json": [[*calibrate, "--oracle", oracle], [*refine, "--triplets", triplets]],
        "oracle.json": [[*calibrate, "--oracle", oracle]],
        "scenes/s/spec.json": [[*refine, "--use-gt-triplets"]],
        "scenes/s/triplets.json": [[*refine, "--use-gt-triplets"]],
        "scenes/s/gt_labels.pgm": [[*calibrate, "--geometric", "--labels", str(bundle / "gt_labels.pgm")],
                                   ["eval", "--scenes", str(bundle), "--pred", str(pred)]],
        "labels.pgm": [["eval", "--scenes", str(bundle), "--pred", str(pred)]],
        "scenes/s/probs/a.rsgf": [[*refine, "--use-gt-triplets"]],
    }


def _mutations(relative: str, data: bytes) -> Iterator[tuple[str, bytes, bool]]:
    if relative.endswith(".pgm"):
        return pgm_mutations(data)
    if relative.endswith(".rsgf"):
        return rsgf_mutations(data)
    schema = {"config.json": CONFIG, "oracle.json": ORACLE, "scenes/s/spec.json": SPEC}.get(relative, TRIPLETS)
    return json_mutations(json.loads(data), schema)


def _run(argv: list[str], out: Path) -> int:
    shutil.rmtree(out, ignore_errors=True)
    (out / "pred").mkdir(parents=True)
    shutil.copy(out.parent / "labels.pgm", out / "pred" / "labels.pgm")
    return main(argv)


@pytest.mark.parametrize("relative", list(_commands(Path("."), Path("."))))
def test_mutated_input_ends_in_a_documented_exit_code(inputs, relative, capsys):
    out = inputs / "out"
    target = inputs / relative
    original = target.read_bytes()
    commands = _commands(inputs, out)[relative]
    for argv in commands:
        assert _run(argv, out) == 0, (argv, capsys.readouterr().err)
    failures = []
    cases = 0
    try:
        for label, data, valid in _mutations(relative, original):
            target.write_bytes(data)
            for argv in commands:
                cases += 1
                try:
                    code = _run(argv, out)
                except Exception as exc:  # noqa: BLE001 - any traceback is the failure under test
                    failures.append(f"{label}: {argv[0]} raised {type(exc).__name__}: {exc}")
                    continue
                if code not in (0, 2, 3, 4) or (code == 0 and not valid):
                    failures.append(f"{label}: {argv[0]} returned {code}")
    finally:
        target.write_bytes(original)
    capsys.readouterr()
    assert cases >= 10
    assert not failures, "\n".join(failures)
