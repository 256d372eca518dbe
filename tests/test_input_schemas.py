"""Each input schema is stated once, on the dataclass a JSON object becomes.

`Placement`, `Confusion` and `SceneSpec` check and normalise their own
fields, so a spec built in Python gets the checks a `spec.json` gets, and
`errors.from_fields` builds any of them from JSON. The source checks at the
end guard against a second statement of a field creeping back in.
"""

from __future__ import annotations

import ast
import inspect
import json
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import relfine
from relfine import cli, errors, scenes
from relfine.cli import main
from relfine.errors import FormatError, require_int, require_real
from relfine.scenes import (
    Confusion,
    Placement,
    SceneSpec,
    generate_scene,
    save_scene_bundle,
    spec_from_dict,
    spec_to_dict,
)

PACKAGE = Path(relfine.__file__).parent
PLACEMENTS = (Placement("a", 1, 1, 4, 4), Placement("b", 5, 5, 7, 7))


def spec(**overrides) -> SceneSpec:
    return SceneSpec(**{"height": 8, "width": 8, "placements": PLACEMENTS, **overrides})


# --------------------------------------------------------------------------
# library-built specs


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: spec(height="8"), "height"),
        (lambda: spec(noise_sigma=None), "noise_sigma"),
        (lambda: spec(confusion=Confusion("a", "b", "0.5")), "strength"),
        (lambda: generate_scene(spec(placements=(Placement("a", 0.5, 0, 2, 2),))), "row0"),
        (lambda: generate_scene(spec(noise_sigma=0.1, seed=1.5)), "seed"),
        (lambda: Placement("../x", 0, 0, 2, 2), "category"),
        (lambda: Confusion("a", "a", 0.5), "first and second"),
        (lambda: spec(placements=[{"category": "a", "row0": 1, "col0": 1, "row1": 4, "col1": 4}]), "placements"),
        (lambda: spec(confusion={"first": "a", "second": "b", "strength": 0.5}), "confusion"),
    ],
    ids=["height", "noise_sigma", "strength", "row0", "seed", "category", "first", "placements", "confusion"],
)
def test_a_library_built_spec_gets_the_json_checks(build, field):
    with pytest.raises(FormatError, match=f"^{field} must"):
        build()


def test_spec_fields_are_stored_as_plain_numbers():
    built = spec(height=np.int64(8), noise_sigma=0, seed=np.int32(3),
                 placements=[Placement("a", np.int64(1), 1, 4, 4)], confusion=None)
    assert [type(built.height), type(built.noise_sigma), type(built.seed)] == [int, float, int]
    assert type(built.placements) is tuple and type(built.placements[0].row0) is int
    assert type(Confusion("a", "b", 1).strength) is float


def test_spec_to_dict_is_a_list_valued_copy_that_round_trips():
    built = spec(confusion=Confusion("a", "b", 0.5), noise_sigma=0.2, seed=4)
    doc = spec_to_dict(built)
    assert isinstance(doc["placements"], list) and all(isinstance(p, dict) for p in doc["placements"])
    assert json.loads(json.dumps(doc)) == doc
    assert spec_from_dict(doc) == built
    doc["height"] = 99
    doc["placements"][0]["row0"] = 99
    doc["confusion"]["strength"] = 0.0
    assert (built.height, built.placements[0].row0, built.confusion.strength) == (8, 1, 0.5)


def test_missing_keys_come_before_field_checks():
    with pytest.raises(FormatError, match=r"^spec\.json: missing keys \['placements'\]$"):
        spec_from_dict({"height": 8, "width": 8}, where="spec.json")
    with pytest.raises(FormatError, match=r"^spec\.json: placements\[1\]: missing keys \['col1'\]$"):
        spec_from_dict({"height": 8, "width": 8, "placements": [
            {"category": "a", "row0": 1, "col0": 1, "row1": 4, "col1": 4},
            {"category": "b", "row0": 5, "col0": 5, "row1": 7},
        ]}, where="spec.json")


def test_save_scene_bundle_still_checks_a_hand_built_roster(tmp_path):
    scene = replace(generate_scene(spec()), categories=("background", "../x"))
    with pytest.raises(FormatError, match="filename-safe"):
        save_scene_bundle(tmp_path / "scene", scene)
    assert not (tmp_path / "scene").exists()


# --------------------------------------------------------------------------
# run configs


def _scene(**extra) -> dict:
    return {"height": 8, "width": 8, "placements": [{"category": "a", "row0": 1, "col0": 1, "row1": 4, "col1": 4}],
            **extra}


@pytest.mark.parametrize(
    "entries, index, name",
    [
        ([_scene(name="scene_001"), _scene()], 1, "scene_001"),
        ([_scene(), _scene(name="scene_000")], 1, "scene_000"),
        ([_scene(name="x"), _scene(name="y"), _scene(name="x")], 2, "x"),
    ],
    ids=["default-after-explicit", "explicit-after-default", "explicit-twice"],
)
def test_run_config_names_the_repeated_scene(tmp_path, capsys, entries, index, name):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"scenes": entries}))
    assert main(["gen-scenes", str(config)]) == 2
    err = capsys.readouterr().err
    assert f"error: {config}: scenes[{index}]: duplicate scene name {name!r}\n" == err, err
    assert not (tmp_path / "out").exists()


def test_config_section_messages_name_the_section(tmp_path, capsys):
    config = tmp_path / "config.json"
    for section, message in [({"scenes": 5}, "'scenes' must be a list"),
                             ({"output_dir": 5}, "'output_dir' must be a string, got 5")]:
        config.write_text(json.dumps({"scenes": [_scene()], **section}))
        assert main(["gen-scenes", str(config)]) == 2
        assert f"error: {config}: {message}\n" == capsys.readouterr().err


# --------------------------------------------------------------------------
# source checks


def _function(module: Path, name: str) -> ast.FunctionDef:
    tree = ast.parse(module.read_text())
    return next(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == name)


def test_spec_json_functions_name_no_scalar_field():
    scalar = {f.name for cls in (Placement, Confusion, SceneSpec) for f in fields(cls)
              if f.type in ("int", "float", "str")}
    assert scalar >= {"height", "noise_sigma", "row0", "category", "strength"}
    for name in ("spec_from_dict", "spec_to_dict"):
        strings = {n.value for n in ast.walk(_function(PACKAGE / "scenes.py", name))
                   if isinstance(n, ast.Constant) and isinstance(n.value, str)}
        assert not strings & scalar, (name, sorted(strings & scalar))


def test_the_second_schema_readers_are_gone():
    assert not hasattr(scenes, "_require_keys")
    assert not hasattr(cli, "_section")
    assert not hasattr(errors, "SceneSpecError")
    assert not hasattr(relfine, "SceneSpecError")


def test_field_checks_take_only_the_value_and_the_field():
    for check in (require_int, require_real):
        assert list(inspect.signature(check).parameters) == ["value", "field"], check.__name__
