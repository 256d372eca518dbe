"""Each schema fact is stated once: a field's type by its annotation, which
`errors.check_fields` reads for every JSON dataclass, and a closed vocabulary
by its `Literal`, from which every check and CLI choice list is derived.

So a setting gives the same bytes whichever source set it, and the source
checks below guard against a second statement creeping back in. The rest
covers the input checks that ride along: the cell cap, a config with no
scenes, an empty `--sizes` and a `--labels` with nothing to read it.
"""

from __future__ import annotations

import ast
import json
import runpy
import shutil
from pathlib import Path
from typing import get_args

import numpy as np
import pytest

import relfine
from relfine import cli, errors, scenes
from relfine.cli import main
from relfine.errors import FormatError
from relfine.refine import RefineConfig
from relfine.relations import Stage
from relfine.scenes import MAX_CELLS, Placement, SceneSpec

PACKAGE = Path(relfine.__file__).parent
DEMO = PACKAGE.parent.parent / "demos" / "bucketed_analysis.py"
FIXTURES = Path(__file__).parent / "fixtures" / "lighthouse_log"

SCENE = {
    "name": "s",
    "height": 16,
    "width": 16,
    "placements": [
        {"category": "a", "row0": 2, "col0": 2, "row1": 7, "col1": 7},
        {"category": "b", "row0": 2, "col0": 9, "row1": 7, "col1": 14},
    ],
    "noise_sigma": 0.1,
    "confusion": {"first": "a", "second": "b", "strength": 0.5},
    "seed": 3,
}


# --------------------------------------------------------------------------
# one normal form whatever the source


def test_config_integers_and_flags_give_the_same_report_bytes(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"scenes": [SCENE], "output_dir": "scenes"}))
    assert main(["gen-scenes", str(config)]) == 0
    capsys.readouterr()
    bundle = tmp_path / "scenes" / "s"
    assert main(["refine", "--scene", str(bundle), "--out", str(tmp_path / "from_flag"), "--use-gt-triplets",
                 "--alpha", "1"]) == 0
    assert "[alpha=1.0]" in capsys.readouterr().out
    from_api = tmp_path / "from_api"
    cli._refine_one(("s", str(bundle), str(from_api), None, RefineConfig(alpha=1)))
    report = (from_api / "report.json").read_bytes()
    assert report == (tmp_path / "from_flag" / "report.json").read_bytes()
    assert json.loads(report)["config"]["refine"]["alpha"] == 1.0


def test_config_dataclasses_store_plain_floats_and_ints():
    placement = Placement("a", np.int64(0), np.int64(0), np.int64(1), np.int64(1))
    assert type(RefineConfig(alpha=1).alpha) is float
    assert [type(v) for v in vars(placement).values()] == [str, int, int, int, int]


# --------------------------------------------------------------------------
# source checks


def _dataclasses() -> list[tuple[str, ast.ClassDef]]:
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and any(
                "dataclass" in ast.unparse(decorator) for decorator in node.decorator_list
            ):
                found.append((f"{path.stem}.{node.name}", node))
    return found


def test_no_post_init_names_its_own_scalar_fields():
    checked = []
    for name, cls in _dataclasses():
        scalar = {
            stmt.target.id for stmt in cls.body
            if isinstance(stmt, ast.AnnAssign) and ast.unparse(stmt.annotation) in ("int", "float", "str")
        }
        post_init = [f for f in cls.body if isinstance(f, ast.FunctionDef) and f.name == "__post_init__"]
        if not scalar or not post_init:
            continue
        strings = {n.value for n in ast.walk(post_init[0]) if isinstance(n, ast.Constant)}
        assert not strings & scalar, (name, sorted(strings & scalar))
        checked.append(name)
    assert {"refine.RefineConfig", "scenes.SceneSpec", "scenes.Placement"} <= set(checked)


def test_every_json_dataclass_calls_the_one_annotation_driven_check():
    assert not hasattr(scenes, "_check_scalars") and not hasattr(scenes, "_REQUIRE")
    assert scenes.require_safe_name is errors.require_safe_name
    callers = {
        name for name, cls in _dataclasses() for f in cls.body
        if isinstance(f, ast.FunctionDef) and f.name == "__post_init__" and "check_fields(self)" in ast.unparse(f)
    }
    json_classes = {"scenes.Placement", "scenes.Confusion", "scenes.SceneSpec", "refine.RefineConfig"}
    assert json_classes <= callers, sorted(json_classes - callers)


def _vocabularies(tree: ast.AST) -> tuple[list[frozenset[str]], set[int]]:
    """The word sets of every Literal[...] in `tree`, and the ids of the
    tuple nodes that spell them there."""
    words, own = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and ast.unparse(node.value) in ("Literal", "typing.Literal"):
            own.add(id(node.slice))
            items = node.slice.elts if isinstance(node.slice, ast.Tuple) else [node.slice]
            words.append(frozenset(item.value for item in items))
    return words, own


def test_no_literal_vocabulary_is_spelled_twice():
    trees = [(path.stem, ast.parse(path.read_text())) for path in sorted(PACKAGE.glob("*.py"))]
    vocabularies, spelled = [], set()
    for _, tree in trees:
        words, own = _vocabularies(tree)
        vocabularies += [w for w in words if len(w) > 1]
        spelled |= own
    assert frozenset(get_args(Stage)) in vocabularies and len(vocabularies) >= 5
    for module, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, (ast.Tuple, ast.List, ast.Set)) and id(node) not in spelled:
                strings = {e.value for e in node.elts if isinstance(e, ast.Constant) and isinstance(e.value, str)}
                repeated = [sorted(w) for w in vocabularies if w <= strings]
                assert not repeated, (module, node.lineno, repeated)


# --------------------------------------------------------------------------
# the cell cap


def test_the_cell_cap_bounds_categories_times_pixels():
    # 2 categories x 2560 x 4096 is exactly 20 Mi cells; nothing is allocated.
    assert MAX_CELLS == 2 * 2560 * 4096
    one = [Placement("a", 0, 0, 1, 1)]
    SceneSpec(height=2560, width=4096, placements=one)
    with pytest.raises(FormatError, match=rf"^categories x height x width must be at most {MAX_CELLS} cells, "
                                          r"got 2x2561x4096$"):
        SceneSpec(height=2561, width=4096, placements=one)
    with pytest.raises(FormatError, match=rf"^categories x height x width must be at most {MAX_CELLS} cells, "
                                          r"got 9x4097x4096$"):
        SceneSpec(height=4097, width=4096, placements=[Placement(f"c{i}", i, 0, i + 1, 1) for i in range(8)])


def _huge_spec() -> dict:
    placements = [{"category": f"c{i}", "row0": i, "col0": 0, "row1": i + 1, "col1": 4096} for i in range(8)]
    return {"height": 4096, "width": 4096, "placements": placements}


def test_gen_scenes_refuses_a_scene_over_the_cell_cap(tmp_path, capsys, monkeypatch):
    def fail(*args):
        raise AssertionError("a scene over the cell cap reached generate_scene")
    monkeypatch.setattr(cli, "generate_scene", fail)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"output_dir": "scenes", "scenes": [{"name": "big", **_huge_spec()}]}))
    assert main(["gen-scenes", str(config)]) == 2
    err = capsys.readouterr().err
    assert f"{config}: scenes[0] (big): " in err and "got 9x4096x4096" in err, err
    assert not (tmp_path / "scenes").exists()


@pytest.mark.parametrize("command", ["refine", "eval"])
def test_bundle_commands_refuse_a_spec_over_the_cell_cap(tmp_path, capsys, command):
    # The bundle holds only spec.json: reading any grid would fail otherwise.
    bundle = tmp_path / "big"
    bundle.mkdir()
    (bundle / "spec.json").write_text(json.dumps(_huge_spec()))
    out = tmp_path / "out"
    argv = (["refine", "--scene", str(bundle), "--out", str(out), "--use-gt-triplets"] if command == "refine"
            else ["eval", "--scenes", str(bundle), "--pred", str(tmp_path), "--out", str(out / "eval.json")])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"error: {bundle / 'spec.json'}: categories x height x width must be at most" in err, err
    assert "got 9x4096x4096" in err
    assert not out.exists()


# --------------------------------------------------------------------------
# the other input checks


@pytest.mark.parametrize("doc", [{"output_dir": "scenes"}, {"output_dir": "scenes", "scenes": []}],
                         ids=["no-key", "empty-list"])
def test_gen_scenes_with_no_scenes_exits_2(tmp_path, capsys, doc):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    assert main(["gen-scenes", str(config)]) == 2
    assert capsys.readouterr().err == f"error: {config}: no scenes to generate ('scenes' is missing or empty)\n"
    assert not (tmp_path / "scenes").exists()


def test_gradcheck_with_empty_sizes_exits_2(capsys, monkeypatch):
    def fail(**kwargs):
        raise AssertionError("gradcheck ran")
    monkeypatch.setattr(cli, "run_gradcheck", fail)
    with pytest.raises(SystemExit) as exc:  # argparse's own exit 2: gradcheck has no --sizes
        main(["gradcheck", "--sizes", ""])
    assert exc.value.code == 2
    assert "error: unrecognized arguments: --sizes" in capsys.readouterr().err


def test_calibrate_labels_needs_geometric(tmp_path, capsys):
    labels = tmp_path / "labels.pgm"
    out = tmp_path / "calibrated.json"
    assert main(["calibrate", "--triplets", str(FIXTURES / "triplets.json"), "--oracle", str(FIXTURES / "oracle.json"),
                 "--labels", str(labels), "--out-triplets", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: --labels needs --geometric")
    assert not out.exists()


def test_bucketed_demo_writes_under_demos_out(tmp_path, monkeypatch):
    demo = tmp_path / "demos" / DEMO.name
    demo.parent.mkdir()
    shutil.copy(DEMO, demo)
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    runpy.run_path(str(demo), run_name="__main__")
    assert (demo.parent / "out" / "bucketed_analysis.csv").read_text().startswith("bucket,scenes,")
    assert not list(work.iterdir())
