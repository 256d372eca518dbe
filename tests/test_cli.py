from __future__ import annotations

import functools
import inspect
import json
import os
import shutil
import subprocess
import sys
import time
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from relfine import cli, evaluate
from relfine.cli import main
from relfine.refine import RefineConfig

FIXTURES = Path(__file__).parent / "fixtures"
DEMO_CONFIG = Path(__file__).parent.parent / "demos" / "fixture_config.json"


def write_config(path: Path, scenes: list[dict], **extra) -> Path:
    doc = {"output_dir": "scenes", "scenes": scenes, **extra}
    path.write_text(json.dumps(doc))
    return path


def small_scene(name="scene_000", seed=1, bad_bounds=False) -> dict:
    return {
        "name": name,
        "height": 16,
        "width": 16,
        "placements": [
            {"category": "a", "row0": 2, "col0": 2, "row1": 7, "col1": 7},
            {"category": "b", "row0": 2 if not bad_bounds else 12, "col0": 9,
             "row1": 7 if not bad_bounds else 30, "col1": 14},
        ],
        "noise_sigma": 0.1,
        "confusion": {"first": "a", "second": "b", "strength": 0.5},
        "seed": seed,
    }


# --------------------------------------------------------------------------
# gen-scenes


def test_gen_scenes_writes_manifest_and_bundles(tmp_path):
    config = write_config(tmp_path / "config.json", [small_scene()])
    assert main(["gen-scenes", str(config)]) == 0
    out = tmp_path / "scenes"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest == {"scenes": [{"name": "scene_000", "seed": 1, "path": "scene_000"}]}
    for rel in ("spec.json", "gt_labels.pgm", "triplets.json", "probs/a.rsgf"):
        assert (out / "scene_000" / rel).exists()


def test_gen_scenes_rerun_byte_identical(tmp_path):
    config = write_config(tmp_path / "config.json", [small_scene(), small_scene("scene_001", seed=2)])
    assert main(["gen-scenes", str(config), "--output", str(tmp_path / "one")]) == 0
    assert main(["gen-scenes", str(config), "--output", str(tmp_path / "two")]) == 0
    first = sorted(p for p in (tmp_path / "one").rglob("*") if p.is_file())
    second = sorted(p for p in (tmp_path / "two").rglob("*") if p.is_file())
    assert [p.relative_to(tmp_path / "one") for p in first] == [
        p.relative_to(tmp_path / "two") for p in second
    ]
    for a, b in zip(first, second):
        assert a.read_bytes() == b.read_bytes()


def test_gen_scenes_out_of_bounds_names_scene(tmp_path, capsys):
    config = write_config(tmp_path / "config.json", [small_scene("broken", bad_bounds=True)])
    assert main(["gen-scenes", str(config)]) == 2
    err = capsys.readouterr().err
    assert "broken" in err and "out of bounds" in err


def test_gen_scenes_rejects_unknown_config_keys(tmp_path, capsys):
    config = write_config(tmp_path / "config.json", [small_scene()], typo_section={})
    assert main(["gen-scenes", str(config)]) == 2
    assert "unknown keys" in capsys.readouterr().err


def _tree(root: Path) -> set[Path]:
    return set(root.rglob("*"))


@pytest.mark.parametrize("name", ["../escaped", "a/b", "", ".", ["x"], 7], ids=repr)
def test_gen_scenes_scene_name_must_be_filename_safe(tmp_path, capsys, name):
    config = write_config(tmp_path / "config.json", [small_scene(name)])
    before = _tree(tmp_path)
    assert main(["gen-scenes", str(config)]) == 2
    err = capsys.readouterr().err
    assert "config.json" in err and "scenes[0]: 'name' must be a filename-safe name" in err, err
    assert _tree(tmp_path) == before


@pytest.mark.parametrize("value", [["x"], 7, "../a"], ids=repr)
@pytest.mark.parametrize("where, field", [("placements[0]", "category"), ("confusion", "first"),
                                          ("confusion", "second")])
def test_gen_scenes_category_names_checked_at_parse_time(tmp_path, capsys, where, field, value):
    scene = small_scene()
    (scene["placements"][0] if where == "placements[0]" else scene["confusion"])[field] = value
    config = write_config(tmp_path / "config.json", [scene])
    out = tmp_path / "out"
    assert main(["gen-scenes", str(config), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config.json" in err and f"{where}: {field} must be a filename-safe name" in err, err
    assert not out.exists()


@pytest.mark.parametrize("output_dir", [["x"], 5, None], ids=repr)
def test_gen_scenes_output_dir_must_be_a_string(tmp_path, capsys, output_dir):
    config = write_config(tmp_path / "config.json", [small_scene()], output_dir=output_dir)
    before = _tree(tmp_path)
    assert main(["gen-scenes", str(config)]) == 2
    err = capsys.readouterr().err
    assert "config.json" in err and f"'output_dir' must be a string, got {output_dir!r}" in err, err
    assert _tree(tmp_path) == before


def test_gen_scenes_jobs_parallel_matches_serial(tmp_path):
    scenes = [small_scene(f"scene_{i:03d}", seed=i) for i in range(4)]
    config = write_config(tmp_path / "config.json", scenes)
    assert main(["gen-scenes", str(config), "--output", str(tmp_path / "serial")]) == 0
    assert main(["gen-scenes", str(config), "--output", str(tmp_path / "parallel"), "--jobs", "3"]) == 0
    for path in sorted((tmp_path / "serial").rglob("*")):
        if path.is_file():
            twin = tmp_path / "parallel" / path.relative_to(tmp_path / "serial")
            assert twin.read_bytes() == path.read_bytes()


def test_config_calibration_section_is_unknown(tmp_path, capsys):
    config = write_config(tmp_path / "config.json", [small_scene()], calibration={"drop_background": "no"})
    assert main(["gen-scenes", str(config)]) == 2
    err = capsys.readouterr().err
    assert "config.json" in err and "unknown keys ['calibration']" in err


# --------------------------------------------------------------------------
# calibrate


def test_calibrate_lighthouse_log(tmp_path, capsys):
    out_triplets = tmp_path / "calibrated.json"
    out_audit = tmp_path / "audit.json"
    code = main([
        "calibrate",
        "--triplets", str(FIXTURES / "lighthouse_log" / "triplets.json"),
        "--oracle", str(FIXTURES / "lighthouse_log" / "oracle.json"),
        "--out-triplets", str(out_triplets),
        "--out-audit", str(out_audit),
    ])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "initial" in stdout and "final" in stdout
    audit = json.loads(out_audit.read_text())
    assert audit["initial"] == 81
    assert audit["final"] == audit["validated"] - audit["resolution_dropped"]
    calibrated = json.loads(out_triplets.read_text())
    assert len(calibrated["triplets"]) == audit["final"]


def test_calibrate_empty_set(tmp_path):
    triplets = tmp_path / "empty.json"
    triplets.write_text(json.dumps({"categories": ["a", "b"], "triplets": []}))
    audit_path = tmp_path / "audit.json"
    oracle = tmp_path / "oracle.json"
    oracle.write_text(json.dumps({"holds": [], "choose": []}))
    assert main(["calibrate", "--triplets", str(triplets), "--oracle", str(oracle),
                 "--out-audit", str(audit_path)]) == 0
    audit = json.loads(audit_path.read_text())
    assert audit == {
        "initial": 0, "background_dropped": 0, "augmented": 0, "validated": 0,
        "contradiction_pairs": 0, "resolution_dropped": 0, "final": 0,
    }


def test_calibrate_neither_drops_both(tmp_path):
    triplets = tmp_path / "t.json"
    triplets.write_text(json.dumps({
        "categories": ["a", "b"],
        "triplets": [
            {"subject": "a", "relation": "right", "object": "b"},
            {"subject": "b", "relation": "right", "object": "a"},
        ],
    }))
    oracle = tmp_path / "oracle.json"
    holds = [
        {"s": s, "r": r, "o": o, "a": "yes"}
        for s, o in (("a", "b"), ("b", "a"))
        for r in ("left", "right")
    ]
    oracle.write_text(json.dumps({"holds": holds, "choose": []}))
    out = tmp_path / "calibrated.json"
    assert main(["calibrate", "--triplets", str(triplets), "--oracle", str(oracle),
                 "--out-triplets", str(out)]) == 0
    assert json.loads(out.read_text())["triplets"] == []


def test_calibrate_geometric_oracle(tmp_path):
    # Generate a bundle, then calibrate its triplets against its own labels.
    config = write_config(tmp_path / "config.json", [small_scene()])
    assert main(["gen-scenes", str(config)]) == 0
    bundle = tmp_path / "scenes" / "scene_000"
    out = tmp_path / "calibrated.json"
    code = main([
        "calibrate",
        "--triplets", str(bundle / "triplets.json"),
        "--geometric", "--labels", str(bundle / "gt_labels.pgm"),
        "--out-triplets", str(out),
    ])
    assert code == 0
    calibrated = json.loads(out.read_text())
    original = json.loads((bundle / "triplets.json").read_text())
    calibrated_keys = {(t["subject"], t["relation"], t["object"]) for t in calibrated["triplets"]}
    original_keys = {(t["subject"], t["relation"], t["object"]) for t in original["triplets"]}
    assert calibrated_keys == original_keys


def _calibrate_args(tmp_path, triplets_doc=None, oracle_doc=None) -> list[str]:
    triplets = tmp_path / "triplets.json"
    triplets.write_text(json.dumps(triplets_doc or {
        "categories": ["a", "b"],
        "triplets": [{"subject": "a", "relation": "left", "object": "b"}],
    }))
    oracle = tmp_path / "oracle.json"
    oracle.write_text(json.dumps(oracle_doc or {"holds": [], "choose": []}))
    return ["calibrate", "--triplets", str(triplets), "--oracle", str(oracle)]


def test_calibrate_oracle_table_not_a_list_exit_code(tmp_path, capsys):
    for table, value in (("choose", 3), ("holds", 7)):
        assert main(_calibrate_args(tmp_path, oracle_doc={table: value})) == 2, table
        err = capsys.readouterr().err
        assert "oracle.json" in err and f"'{table}' must be a list" in err, err


def test_calibrate_oracle_name_not_a_string_exit_code(tmp_path, capsys):
    entries = {
        "holds": {"s": ["a"], "r": "left", "o": "b", "a": "yes"},
        "choose": {"s": "a", "r1": "left", "r2": "right", "o": {"b": 1}, "a": "first"},
    }
    for table, entry in entries.items():
        assert main(_calibrate_args(tmp_path, oracle_doc={table: [entry]})) == 2, table
        err = capsys.readouterr().err
        assert "oracle.json" in err and f"{table}[0]" in err and "must be a string" in err, err


def test_calibrate_triplet_name_not_a_string_exit_code(tmp_path, capsys):
    for key in ("subject", "object"):
        entry = {"subject": "a", "relation": "left", "object": "b", key: ["a"]}
        doc = {"categories": ["a", "b"], "triplets": [entry]}
        assert main(_calibrate_args(tmp_path, triplets_doc=doc)) == 2, key
        err = capsys.readouterr().err
        assert "triplets.json" in err and "triplets[0]" in err and f"'{key}' must be a string" in err, err


# --------------------------------------------------------------------------
# refine


def _generated_scene_set(tmp_path) -> Path:
    config = write_config(tmp_path / "config.json", [small_scene(), small_scene("scene_001", seed=2)])
    assert main(["gen-scenes", str(config)]) == 0
    return tmp_path / "scenes"


def test_refine_baseline_flag_and_outputs(tmp_path):
    scenes = _generated_scene_set(tmp_path)
    bundle = scenes / "scene_000"
    out = tmp_path / "baseline"
    assert main(["refine", "--scene", str(bundle), "--out", str(out),
                 "--use-gt-triplets", "--alpha", "0"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["baseline"] is True
    assert len(report["trace"]) == 1
    assert (out / "labels.pgm").exists()
    assert (out / "probs" / "a.rsgf").exists()


def test_refine_fixture_bundle_matches_golden_report(tmp_path):
    # Same regression pin as the library-level test, exercised through the
    # bundle formats and the command line.
    from relfine import generate_scene, random_grid_spec, save_scene_bundle

    scene = generate_scene(random_grid_spec(42, n_categories=2, noise_sigma=0.15, confusion_strength=0.5))
    save_scene_bundle(tmp_path / "bundle", scene)
    out = tmp_path / "out"
    assert main(["refine", "--scene", str(tmp_path / "bundle"), "--out", str(out),
                 "--use-gt-triplets"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["baseline"] is False
    assert report["metrics"]["miou"] == 0.7080482241772564
    assert report["config"]["refine"]["alpha"] == 0.1
    assert len(report["constraints"]) == len(scene.gt_triplets)


def test_refine_scene_set_and_eval_round_trip(tmp_path):
    scenes = _generated_scene_set(tmp_path)
    base_out = tmp_path / "base"
    ref_out = tmp_path / "refined"
    assert main(["refine", "--scene", str(scenes), "--out", str(base_out),
                 "--use-gt-triplets", "--alpha", "0"]) == 0
    assert main(["refine", "--scene", str(scenes), "--out", str(ref_out),
                 "--use-gt-triplets"]) == 0
    report_path = tmp_path / "report.json"
    csv_path = tmp_path / "buckets.csv"
    assert main(["eval", "--scenes", str(scenes), "--pred", str(ref_out),
                 "--baseline", str(base_out), "--out", str(report_path),
                 "--csv", str(csv_path)]) == 0
    report = json.loads(report_path.read_text())
    assert len(report["scenes"]) == 2
    assert report["aggregate"]["miou"] >= report["baseline_aggregate"]["miou"]
    assert csv_path.read_text().startswith("bucket,scenes,baseline_miou,refined_miou,delta")


def test_refine_report_trace_rows_hold_losses_and_constraints_hold_both_weights(tmp_path):
    from relfine import RefineConfig, load_scene_bundle, refine, spatial_loss

    bundle = _generated_scene_set(tmp_path) / "scene_000"
    out = tmp_path / "refined"
    assert main(["refine", "--scene", str(bundle), "--out", str(out), "--use-gt-triplets"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert [sorted(row) for row in report["trace"]] == [["fidelity", "spatial", "step", "total"]] * 15

    scene = load_scene_bundle(bundle)
    state, trace = refine(scene.init_probs, scene.gt_triplets, RefineConfig())
    final = spatial_loss(state, scene.gt_triplets)[1].weights
    constraints = report["constraints"]
    assert constraints and [c["initial_weight"] for c in constraints] == trace.initial_weights.tolist()
    assert [c["weight"] for c in constraints] == final.tolist()
    assert trace.initial_weights.tolist() != final.tolist()


def test_refine_report_holds_one_row_per_step_that_ran(tmp_path):
    # The baseline stops at its fixed point after one step; the report keeps
    # that row alone.
    bundle = _generated_scene_set(tmp_path) / "scene_000"
    out = tmp_path / "baseline"
    assert main(["refine", "--scene", str(bundle), "--out", str(out), "--use-gt-triplets", "--alpha", "0"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert [row["step"] for row in report["trace"]] == [1]


def test_refine_without_a_moving_step_reports_the_initial_weight_as_final(tmp_path):
    bundle = _generated_scene_set(tmp_path) / "scene_000"
    out = tmp_path / "refined"
    assert main(["refine", "--scene", str(bundle), "--out", str(out), "--use-gt-triplets", "--alpha", "0"]) == 0
    constraints = json.loads((out / "report.json").read_text())["constraints"]
    assert constraints and all(c["initial_weight"] == c["weight"] for c in constraints)


def test_bare_refine_equals_the_default_flags(tmp_path, capsys):
    scenes = _generated_scene_set(tmp_path)
    capsys.readouterr()
    flags = ["--alpha", "0.1"]
    for out, extra in (("bare", []), ("flags", flags)):
        assert main(["refine", "--scene", str(scenes), "--out", str(tmp_path / out), "--use-gt-triplets", *extra]) == 0
    bare, flagged = _digests(tmp_path / "bare"), _digests(tmp_path / "flags")
    assert len(bare) == 2 * 5 and bare == flagged
    first, second = capsys.readouterr().out.splitlines()
    assert first == second and "[alpha=0.1]" in first


def test_refine_report_echoes_exactly_alpha(tmp_path):
    bundle = _generated_scene_set(tmp_path) / "scene_000"
    out = tmp_path / "refined"
    assert main(["refine", "--scene", str(bundle), "--out", str(out), "--use-gt-triplets"]) == 0
    echo = json.loads((out / "report.json").read_text())["config"]["refine"]
    assert echo == {"alpha": 0.1}


def test_refine_report_config_holds_only_the_refine_section(tmp_path):
    bundle = _generated_scene_set(tmp_path) / "scene_000"
    out = tmp_path / "refined"
    assert main(["refine", "--scene", str(bundle), "--out", str(out), "--use-gt-triplets"]) == 0
    config = json.loads((out / "report.json").read_text())["config"]
    assert config == {"refine": asdict(RefineConfig())}


def test_refined_scene_set_holds_no_manifest_and_is_no_input(tmp_path, capsys):
    scenes = _generated_scene_set(tmp_path)
    base_out, ref_out = tmp_path / "base", tmp_path / "refined"
    for out, alpha in ((base_out, "0"), (ref_out, "0.1")):
        assert main(["refine", "--scene", str(scenes), "--out", str(out), "--use-gt-triplets", "--alpha", alpha]) == 0
        assert sorted(path.name for path in out.iterdir()) == ["scene_000", "scene_001"]
    assert main(["eval", "--scenes", str(scenes), "--pred", str(ref_out), "--baseline", str(base_out)]) == 0
    capsys.readouterr()
    for argv in (["refine", "--scene", str(ref_out), "--out", str(tmp_path / "again"), "--use-gt-triplets"],
                 ["eval", "--scenes", str(ref_out), "--pred", str(ref_out)]):
        assert main(argv) == 2
        assert f"{ref_out}: neither a scene bundle" in capsys.readouterr().err


def test_refine_checks_each_scene_once_and_satisfaction_is_the_flags_mean(tmp_path, monkeypatch):
    scenes = _generated_scene_set(tmp_path)
    calls = []
    flags_of = cli.satisfied_flags

    def counted(*args, **kwargs):
        calls.append(1)
        return flags_of(*args, **kwargs)

    # Both the CLI's own call and any inside evaluate_scene are counted.
    monkeypatch.setattr(cli, "satisfied_flags", counted)
    monkeypatch.setattr(evaluate, "satisfied_flags", counted)
    out = tmp_path / "refined"
    assert main(["refine", "--scene", str(scenes), "--out", str(out), "--use-gt-triplets"]) == 0
    assert len(calls) == 2
    for name in ("scene_000", "scene_001"):
        report = json.loads((out / name / "report.json").read_text())
        satisfied = [c["satisfied"] for c in report["constraints"]]
        assert satisfied
        assert report["metrics"]["constraint_satisfaction"] == sum(satisfied) / len(satisfied)

    empty = tmp_path / "empty.json"
    roster = json.loads((scenes / "scene_000" / "triplets.json").read_text())["categories"]
    empty.write_text(json.dumps({"categories": roster, "triplets": []}))
    assert main(["refine", "--scene", str(scenes / "scene_000"), "--out", str(tmp_path / "empty"),
                 "--triplets", str(empty)]) == 0
    report = json.loads((tmp_path / "empty" / "report.json").read_text())
    assert report["constraints"] == []
    assert report["metrics"]["constraint_satisfaction"] == 1.0
    assert len(calls) == 3


@pytest.mark.parametrize("alpha", [["--alpha", "0"], []], ids=["baseline", "default_alpha"])
def test_refine_jobs_parallel_matches_serial(tmp_path, alpha):
    scenes = _generated_scene_set(tmp_path)
    trees = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs_{jobs}"
        assert main(["refine", "--scene", str(scenes), "--out", str(out),
                     "--use-gt-triplets", "--jobs", jobs, *alpha]) == 0
        trees.append({p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()})
    assert trees[0] and trees[0] == trees[1]


def test_refine_failing_scene_leaves_the_same_outputs_at_any_jobs(tmp_path, capsys):
    # scene_000 places "c" where the others place "b", so the triplets of
    # scene_001 name a category it lacks. The scenes after it still run, and
    # the failure is reported the same way, whatever the job count.
    odd = small_scene("scene_000", seed=1)
    odd["placements"][1]["category"] = odd["confusion"]["second"] = "c"
    scenes = [odd, small_scene("scene_001", seed=2), small_scene("scene_002", seed=3)]
    config = write_config(tmp_path / "config.json", scenes)
    assert main(["gen-scenes", str(config)]) == 0
    triplets = tmp_path / "scenes" / "scene_001" / "triplets.json"
    runs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs_{jobs}"
        code = main(["refine", "--scene", str(tmp_path / "scenes"), "--out", str(out),
                     "--triplets", str(triplets), "--jobs", jobs])
        tree = {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
        runs.append((code, capsys.readouterr().err, tree))
    assert runs[0][0] == 3 and "'b'" in runs[0][1]
    assert {path.parts[0] for path in runs[0][2]} == {"scene_001", "scene_002"}
    assert runs[0] == runs[1]


def test_refine_loads_triplets_once_per_command(tmp_path, monkeypatch):
    scenes = _generated_scene_set(tmp_path)
    calls = []
    load = cli.load_triplets
    monkeypatch.setattr(cli, "load_triplets", lambda path: calls.append(path) or load(path))
    assert main(["refine", "--scene", str(scenes), "--out", str(tmp_path / "out"),
                 "--triplets", str(scenes / "scene_000" / "triplets.json")]) == 0
    assert len(calls) == 1


def test_refine_and_eval_reject_an_empty_scene_set(tmp_path, capsys):
    scenes = tmp_path / "scenes"
    scenes.mkdir()
    (scenes / "manifest.json").write_text(json.dumps({"scenes": []}))
    out = tmp_path / "out"
    for argv in (["refine", "--scene", str(scenes), "--out", str(out), "--use-gt-triplets"],
                 ["eval", "--scenes", str(scenes), "--pred", str(out), "--out", str(out / "r.json")]):
        assert main(argv) == 2
        assert f"{scenes}: scene set is empty" in capsys.readouterr().err
    assert not out.exists()


def test_bundle_triplets_roster_must_match_spec(tmp_path, capsys):
    # The roster is the one spec.json places; a triplets.json listing the same
    # categories in another order would stack the maps against the labels.
    from relfine import generate_scene, random_grid_spec, save_scene_bundle

    bundle = tmp_path / "bundle"
    save_scene_bundle(bundle, generate_scene(random_grid_spec(5, n_categories=3, height=16, width=16)))
    doc = json.loads((bundle / "triplets.json").read_text())
    doc["categories"] = doc["categories"][::-1]
    (bundle / "triplets.json").write_text(json.dumps(doc))
    pred = tmp_path / "pred"
    pred.mkdir()
    shutil.copy(bundle / "gt_labels.pgm", pred / "labels.pgm")
    out = tmp_path / "out"
    for argv in (["refine", "--scene", str(bundle), "--out", str(out), "--use-gt-triplets"],
                 ["eval", "--scenes", str(bundle), "--pred", str(pred), "--out", str(out / "r.json")]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert str(bundle / "triplets.json") in err and "spec.json" in err, err
    assert not out.exists()


@pytest.mark.parametrize(
    "field, value",
    [("name", "../../leak"), ("path", "../scene_000"), ("name", ["x"]), ("path", 0)],
    ids=repr,
)
def test_refine_manifest_entries_must_be_filename_safe(tmp_path, capsys, field, value):
    scenes = _generated_scene_set(tmp_path)
    manifest = scenes / "manifest.json"
    doc = json.loads(manifest.read_text())
    doc["scenes"][0][field] = value
    manifest.write_text(json.dumps(doc))
    out = tmp_path / "runs" / "out"
    before = _tree(tmp_path)
    code = main(["refine", "--scene", str(scenes), "--out", str(out), "--use-gt-triplets"])
    assert code == 2
    err = capsys.readouterr().err
    assert "manifest.json" in err and f"scenes[0]: {field!r} must be a filename-safe name" in err, err
    assert _tree(tmp_path) == before


def test_refine_unknown_category_exit_code(tmp_path, capsys):
    scenes = _generated_scene_set(tmp_path)
    triplets = tmp_path / "bad.json"
    triplets.write_text(json.dumps({
        "categories": ["a", "ghost"],
        "triplets": [{"subject": "ghost", "relation": "left", "object": "a"}],
    }))
    code = main(["refine", "--scene", str(scenes / "scene_000"),
                 "--out", str(tmp_path / "out"), "--triplets", str(triplets)])
    assert code == 3
    assert "ghost" in capsys.readouterr().err


def test_refine_requires_a_triplet_source(tmp_path):
    scenes = _generated_scene_set(tmp_path)
    assert main(["refine", "--scene", str(scenes / "scene_000"), "--out", str(tmp_path / "o")]) == 2


def test_refine_divergence_exit_code_and_no_report(tmp_path, capsys):
    # An alpha this large overflows float64: the objective stops being
    # finite, and report.json would not be JSON.
    scenes = _generated_scene_set(tmp_path)
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["refine", "--scene", str(scenes / "scene_000"), "--out", str(out),
                     "--use-gt-triplets", "--alpha", "1e308"])
    assert code == 2
    err = capsys.readouterr().err
    assert "diverged at step 1" in err and "lower alpha" in err, err
    assert "RuntimeWarning" not in err and not caught, (err, [str(w.message) for w in caught])
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("case, code", [("unknown category", 3), ("divergence", 2)])
def test_refine_failure_names_its_bundle_at_any_jobs(tmp_path, capsys, case, code):
    # In a scene set, the error a scene's refine raises starts with that
    # scene's bundle and keeps its exit code, whatever the job count.
    scenes = _generated_scene_set(tmp_path)
    if case == "unknown category":
        triplets = tmp_path / "c.json"
        triplets.write_text(json.dumps({
            "categories": ["a", "c"],
            "triplets": [{"subject": "c", "relation": "left", "object": "a"}],
        }))
        flags = ["--triplets", str(triplets)]
        message = "category 'c' is not in roster ['background', 'a', 'b']"
    else:
        flags = ["--use-gt-triplets", "--alpha", "1e308"]
        message = "refinement diverged at step 1: "
    errors = []
    for jobs in ("1", "2"):
        argv = ["refine", "--scene", str(scenes), "--out", str(tmp_path / f"jobs_{jobs}"), *flags, "--jobs", jobs]
        assert main(argv) == code
        errors.append(capsys.readouterr().err)
    assert errors[0].startswith(f"error: {scenes / 'scene_000'}: {message}"), errors[0]
    assert errors[0] == errors[1]


# --------------------------------------------------------------------------
# eval


def test_eval_on_ground_truth_labels(tmp_path):
    scenes = _generated_scene_set(tmp_path)
    pred = tmp_path / "pred"
    for name in ("scene_000", "scene_001"):
        (pred / name).mkdir(parents=True)
        shutil.copy(scenes / name / "gt_labels.pgm", pred / name / "labels.pgm")
    report_path = tmp_path / "report.json"
    assert main(["eval", "--scenes", str(scenes), "--pred", str(pred),
                 "--out", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["aggregate"]["miou"] == 1.0
    assert all(s["miou"] == 1.0 for s in report["scenes"])


def test_eval_single_bundle_mode(tmp_path):
    scenes = _generated_scene_set(tmp_path)
    bundle = scenes / "scene_000"
    out = tmp_path / "single"
    assert main(["refine", "--scene", str(bundle), "--out", str(out), "--use-gt-triplets"]) == 0
    report_path = tmp_path / "single_report.json"
    assert main(["eval", "--scenes", str(bundle), "--pred", str(out),
                 "--out", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert len(report["scenes"]) == 1
    assert report["scenes"][0]["scene"] == "scene_000"


def test_eval_baseline_loads_each_scene_bundle_once(tmp_path, monkeypatch):
    scenes = _generated_scene_set(tmp_path)
    for out, alpha in (("base", "0"), ("refined", "0.1")):
        assert main(["refine", "--scene", str(scenes), "--out", str(tmp_path / out),
                     "--use-gt-triplets", "--alpha", alpha]) == 0
    loads = []
    load = cli.load_scene_bundle
    monkeypatch.setattr(cli, "load_scene_bundle", lambda path: loads.append(path) or load(path))
    assert main(["eval", "--scenes", str(scenes), "--pred", str(tmp_path / "refined"),
                 "--baseline", str(tmp_path / "base")]) == 0
    assert sorted(Path(p).name for p in loads) == ["scene_000", "scene_001"]


def test_eval_missing_prediction_exit_code(tmp_path, capsys):
    scenes = _generated_scene_set(tmp_path)
    pred = tmp_path / "pred"
    (pred / "scene_000").mkdir(parents=True)
    shutil.copy(scenes / "scene_000" / "gt_labels.pgm", pred / "scene_000" / "labels.pgm")
    assert main(["eval", "--scenes", str(scenes), "--pred", str(pred)]) == 4
    assert "scene_001" in capsys.readouterr().err


# --------------------------------------------------------------------------
# gradcheck


def test_gradcheck_passes_and_prints_table(capsys):
    assert main(["gradcheck"]) == 0
    out = capsys.readouterr().out
    assert "clamped  max_rel_error" in out
    assert "20/20 instances within 0.0001" in out


def test_gradcheck_corrupted_fails(capsys):
    assert main(["gradcheck", "--corrupt-gradient"]) == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--seed", "-1"], "seed"),
        (["--alpha", "nan"], "alpha"),
        (["--alpha", "inf"], "alpha"),
        (["--alpha", "-1"], "alpha"),
        (["--alpha", "1e308"], "lower --alpha"),
        (["--sizes", "100000000000000000000x1"], "sizes"),
        (["--instances", "0"], "instances"),
        (["--instances", "-3"], "instances"),
        (["--tolerance", "inf"], "tolerance"),
        (["--tolerance", "0"], "tolerance"),
    ],
)
def test_gradcheck_rejects_bad_flags(capsys, flags, named):
    # A bad --alpha is refused by run_gradcheck; --seed, --sizes, --instances
    # and --tolerance are not gradcheck flags, so argparse exits on them.
    try:
        code = main(["gradcheck", *flags])
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err, err


# --------------------------------------------------------------------------
# one parser per process


def _lighthouse_calibration(out: Path) -> list[str]:
    out.mkdir()
    return [
        "calibrate",
        "--triplets", str(FIXTURES / "lighthouse_log" / "triplets.json"),
        "--oracle", str(FIXTURES / "lighthouse_log" / "oracle.json"),
        "--out-triplets", str(out / "calibrated.json"),
        "--out-audit", str(out / "audit.json"),
    ]


def _outputs(out: Path, capsys) -> tuple:
    captured = capsys.readouterr()
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    return captured.out, captured.err, files


def test_shared_parser_call_after_a_failed_call_matches_a_first_call(tmp_path, capsys):
    cli._shared_parser.cache_clear()
    assert main(_lighthouse_calibration(tmp_path / "first")) == 0
    first = _outputs(tmp_path / "first", capsys)

    bad_oracle = {"holds": [{"s": "a", "r": "up", "o": "b", "a": "yes"}]}
    assert main(_calibrate_args(tmp_path, oracle_doc=bad_oracle)) == 2
    assert "unknown relation 'up'" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:  # argparse's own exit 2
        main(["calibrate", "--triplets", "t.json", "--oracle", "o.json", "--geometric"])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err

    assert main(_lighthouse_calibration(tmp_path / "again")) == 0
    assert _outputs(tmp_path / "again", capsys) == first


def test_shared_parser_runs_a_handler_replaced_after_the_first_call(tmp_path, monkeypatch):
    assert main(["eval", "--scenes", str(tmp_path), "--pred", str(tmp_path), "--csv", "x.csv"]) == 2
    seen = []
    monkeypatch.setattr(cli, "cmd_eval", lambda args: seen.append(args.scenes) or 0)
    assert main(["eval", "--scenes", "somewhere", "--pred", str(tmp_path), "--csv", "x.csv"]) == 0
    assert seen == ["somewhere"]


def test_shared_parser_is_built_once_and_build_parser_stays_fresh(tmp_path, monkeypatch):
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._shared_parser.cache_clear()
    for _ in range(5):
        assert main(["eval", "--scenes", str(tmp_path), "--pred", str(tmp_path), "--csv", "x.csv"]) == 2
    assert main(["gradcheck"]) == 0
    assert len(built) == 1

    # A caller's own parser is a separate object, so changing it leaves main's alone.
    mine = cli.build_parser()
    assert mine is not cli.build_parser() and mine is not cli._shared_parser()
    assert len(built) == 3


# --------------------------------------------------------------------------
# full round trip on the shipped fixture config


def test_fixture_config_round_trip_under_a_minute(tmp_path):
    start = time.monotonic()
    scenes = tmp_path / "scenes"
    assert main(["gen-scenes", str(DEMO_CONFIG), "--output", str(scenes)]) == 0
    base = tmp_path / "base"
    refined = tmp_path / "refined"
    assert main(["refine", "--scene", str(scenes), "--out", str(base),
                 "--use-gt-triplets", "--alpha", "0"]) == 0
    assert main(["refine", "--scene", str(scenes), "--out", str(refined),
                 "--use-gt-triplets", "--jobs", "2"]) == 0
    assert main(["eval", "--scenes", str(scenes), "--pred", str(refined),
                 "--baseline", str(base), "--out", str(tmp_path / "report.json"),
                 "--csv", str(tmp_path / "buckets.csv")]) == 0
    assert time.monotonic() - start < 60.0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["aggregate"]["miou"] > report["baseline_aggregate"]["miou"]


# --------------------------------------------------------------------------
# malformed input ends in exit 2 with a message, never a traceback


def _gt_predictions(tmp_path, scenes: Path) -> Path:
    pred = tmp_path / "pred"
    for name in ("scene_000", "scene_001"):
        (pred / name).mkdir(parents=True)
        shutil.copy(scenes / name / "gt_labels.pgm", pred / name / "labels.pgm")
    return pred


def test_eval_unterminated_pgm_comment_exit_code(tmp_path, capsys):
    scenes = _generated_scene_set(tmp_path)
    pred = _gt_predictions(tmp_path, scenes)
    (pred / "scene_000" / "labels.pgm").write_bytes(b"P5\n# no newline")
    assert main(["eval", "--scenes", str(scenes), "--pred", str(pred)]) == 2
    err = capsys.readouterr().err
    assert "labels.pgm" in err and "comment" in err
    assert "Traceback" not in err


def test_eval_csv_needs_baseline(tmp_path, capsys):
    scenes = _generated_scene_set(tmp_path)
    pred = _gt_predictions(tmp_path, scenes)
    csv_path = tmp_path / "buckets.csv"
    assert main(["eval", "--scenes", str(scenes), "--pred", str(pred), "--csv", str(csv_path)]) == 2
    assert "--csv needs --baseline" in capsys.readouterr().err
    assert not csv_path.exists()


def test_eval_threshold_flag_is_unknown(tmp_path, capsys):
    scenes = _generated_scene_set(tmp_path)
    pred = _gt_predictions(tmp_path, scenes)
    out = tmp_path / "eval.json"
    with pytest.raises(SystemExit) as exc:  # argparse's own exit 2
        main(["eval", "--scenes", str(scenes), "--pred", str(pred), "--out", str(out), "--threshold", "0.5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --threshold 0.5" in capsys.readouterr().err
    assert not out.exists()


def test_eval_group_by_flag_is_unknown(tmp_path, capsys):
    # eval buckets by category count only; the flag that chose a grouping is gone.
    scenes = _generated_scene_set(tmp_path)
    pred = _gt_predictions(tmp_path, scenes)
    out, csv_path = tmp_path / "eval.json", tmp_path / "buckets.csv"
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:  # argparse's own exit 2
        main(["eval", "--scenes", str(scenes), "--pred", str(pred), "--baseline", str(pred),
              "--out", str(out), "--csv", str(csv_path), "--group-by", "categories"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "unrecognized arguments: --group-by categories" in captured.err and captured.out == ""
    assert not out.exists() and not csv_path.exists()


@pytest.mark.parametrize("flag", ["--swap-args", "--keep-background"])
def test_calibrate_removed_flags_are_unknown(tmp_path, capsys, flag):
    out = tmp_path / "calibrated.json"
    audit = tmp_path / "audit.json"
    with pytest.raises(SystemExit) as exc:  # argparse's own exit 2
        main([*_calibrate_args(tmp_path), "--out-triplets", str(out), "--out-audit", str(audit), flag])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert f"unrecognized arguments: {flag}" in captured.err and captured.out == ""
    assert not out.exists() and not audit.exists()


def test_refine_reduction_flag_is_unknown(tmp_path, capsys):
    scenes = _generated_scene_set(tmp_path)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:  # argparse's own exit 2
        main(["refine", "--scene", str(scenes), "--out", str(out), "--use-gt-triplets", "--reduction", "mean"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --reduction mean" in capsys.readouterr().err
    assert not out.exists()


def test_refine_config_flag_is_unknown(tmp_path, capsys):
    scenes = _generated_scene_set(tmp_path)
    config = write_config(tmp_path / "run.json", [])
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:  # argparse's own exit 2
        main(["refine", "--scene", str(scenes), "--out", str(out), "--use-gt-triplets", "--config", str(config)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: --config {config}" in capsys.readouterr().err
    assert not out.exists()


def test_run_config_refine_section_is_unknown(tmp_path, capsys):
    config = write_config(tmp_path / "config.json", [small_scene()], refine={"alpha": 0.1})
    assert main(["gen-scenes", str(config)]) == 2
    assert f"error: {config}: unknown keys ['refine']\n" == capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == [config]


@pytest.mark.parametrize("flag", [["--steps", "3"], ["--learning-rate", "0.1"]])
def test_refine_takes_no_step_count_or_learning_rate(tmp_path, capsys, flag):
    scenes = _generated_scene_set(tmp_path)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:  # argparse's own exit 2
        main(["refine", "--scene", str(scenes), "--out", str(out), "--use-gt-triplets", *flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not out.exists()


def _with(doc: dict, path: tuple, value) -> dict:
    doc = json.loads(json.dumps(doc))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


WRONG_TYPES = [
    (("height",), "x", "height"),
    (("width",), 16.5, "width"),
    (("seed",), "1", "seed"),
    (("seed",), True, "seed"),
    (("placements", 0, "row0"), 2.5, "row0"),
    (("placements", 1, "col1"), "14", "col1"),
    (("noise_sigma",), "x", "noise_sigma"),
    (("noise_sigma",), float("nan"), "noise_sigma"),
    (("confusion", "strength"), [0.5], "strength"),
    (("confusion",), 3, "confusion"),
    (("placements",), 5, "placements"),
]


def test_scene_fields_of_wrong_type_exit_code(tmp_path, capsys):
    for path, value, field in WRONG_TYPES:
        scene = _with(small_scene(), path, value)
        config = write_config(tmp_path / "config.json", [scene])
        assert main(["gen-scenes", str(config)]) == 2, (path, value)
        err = capsys.readouterr().err
        assert "config.json" in err and field in err and repr(value) in err, err


HUGE_INTEGER = 10**400  # finite as an int, too large for a float


@pytest.mark.parametrize(
    "mutate, flags, field",
    [
        (lambda doc: doc["scenes"][0].update(noise_sigma=HUGE_INTEGER), [], "noise_sigma"),
        (lambda doc: doc["scenes"][0]["confusion"].update(strength=HUGE_INTEGER), [], "strength"),
        # argparse reads the flag's 401 digits as inf
        (lambda doc: None, ["--alpha", str(HUGE_INTEGER)], "alpha"),
    ],
    ids=["noise_sigma", "strength", "alpha"],
)
def test_real_field_too_large_for_a_float_exit_code(tmp_path, capsys, mutate, flags, field):
    doc = {"output_dir": "scenes", "scenes": [small_scene()]}
    mutate(doc)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    code = main(["gen-scenes", str(config)])
    if flags:
        assert code == 0
        capsys.readouterr()
        code = main(["refine", "--scene", str(tmp_path / "scenes"), "--out", str(tmp_path / "out"),
                     "--use-gt-triplets", *flags])
    assert code == 2
    err = capsys.readouterr().err
    assert f"{field} must be a finite number" in err, err
    if not flags:
        assert "config.json" in err, err


@pytest.mark.parametrize(
    "height, width", [(int("9" * 400), 16), (10**6, 10**6)], ids=["400_digit_height", "million_squared"]
)
def test_scene_grid_over_the_pixel_cap_exit_code(tmp_path, capsys, height, width):
    config = write_config(tmp_path / "config.json", [{**small_scene(), "height": height, "width": width}])
    assert main(["gen-scenes", str(config)]) == 2
    err = capsys.readouterr().err
    assert "config.json" in err and "categories x height x width must be at most 20971520 cells" in err, err
    assert not (tmp_path / "scenes").exists()


WRONG_SECTION_TYPES = [
    ("output_dir", 5),
    ("output_dir", None),
    ("output_dir", ["x"]),
    ("scenes", 5),
    ("scenes", {"x": 1}),
    ("scenes", "x"),
]


def test_config_section_fields_of_wrong_type_exit_code(tmp_path, capsys):
    for section, value in WRONG_SECTION_TYPES:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({section: value}))
        assert main(["gen-scenes", str(config)]) == 2, (section, value)
        err = capsys.readouterr().err
        assert "config.json" in err and repr(section) in err, err


def test_a_roster_past_the_label_map_cap_exits_at_the_spec_check(tmp_path, capsys):
    def one_pixel_scene(count: int) -> dict:
        placements = [{"category": f"c{k:03d}", "row0": k // 16, "col0": k % 16,
                       "row1": k // 16 + 1, "col1": k % 16 + 1} for k in range(count)]
        return {"name": "big", "height": 16, "width": 16, "placements": placements}

    config = write_config(tmp_path / "config.json", [one_pixel_scene(256)])
    assert main(["gen-scenes", str(config)]) == 2
    err = capsys.readouterr().err
    assert f"error: {config}: scenes[0] (big): a scene holds at most 256 categories" in err, err
    assert "got 257" in err, err
    assert not (tmp_path / "scenes").exists()

    config = write_config(tmp_path / "config.json", [one_pixel_scene(255)])
    assert main(["gen-scenes", str(config)]) == 0
    assert len(list((tmp_path / "scenes" / "big" / "probs").iterdir())) == 256


# --------------------------------------------------------------------------
# JSON and grid files a user hands the CLI


def test_missing_json_file_exit_code(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    args = _calibrate_args(tmp_path)
    scenes = _generated_scene_set(tmp_path)
    commands = [
        ["calibrate", "--triplets", missing, *args[3:]],
        [*args[:3], "--oracle", missing],
        ["refine", "--scene", str(scenes / "scene_000"), "--out", str(tmp_path / "out"), "--triplets", missing],
    ]
    for command in commands:
        assert main(command) == 2, command
        err = capsys.readouterr().err
        assert "missing.json" in err and "cannot read" in err, err


def test_json_file_not_utf8_exit_code(tmp_path, capsys):
    args = _calibrate_args(tmp_path)
    (tmp_path / "oracle.json").write_bytes(b'{"holds": [], "choose": [\xff]}')
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "oracle.json" in err and "not UTF-8" in err, err


def test_json_file_invalid_exit_code(tmp_path, capsys):
    args = _calibrate_args(tmp_path)
    oracle = tmp_path / "oracle.json"
    for text, message in (('{"holds": [', "invalid JSON"), ("[" * 100000 + "]" * 100000, "nested too deeply")):
        oracle.write_text(text)
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "oracle.json" in err and message in err, err


def test_json_integer_too_long_to_parse_exit_code(tmp_path, capsys):
    # Python refuses to parse integers past 4,300 digits; json.dumps would
    # refuse to write one, so the digits are spliced into the text.
    text = json.dumps({"output_dir": "scenes", "scenes": [small_scene()]})
    config = tmp_path / "config.json"
    config.write_text(text.replace('"height": 16', '"height": ' + "9" * 5000, 1))
    assert main(["gen-scenes", str(config)]) == 2
    err = capsys.readouterr().err
    assert "config.json" in err and "invalid JSON" in err, err


def test_json_file_not_an_object_exit_code(tmp_path, capsys):
    scenes = _generated_scene_set(tmp_path)
    (scenes / "scene_000" / "spec.json").write_text("5")
    assert main(["refine", "--scene", str(scenes / "scene_000"), "--out", str(tmp_path / "out"),
                 "--use-gt-triplets"]) == 2
    err = capsys.readouterr().err
    assert "spec.json" in err and "expected a JSON object" in err, err


@pytest.mark.parametrize("message", ["cannot read"], ids=["missing"])
def test_calibrate_geometric_grid_json_fields_exit_code(tmp_path, capsys, message):
    labels = tmp_path / "labels.json"
    args = _calibrate_args(tmp_path)
    assert main([*args[:3], "--geometric", "--labels", str(labels)]) == 2
    err = capsys.readouterr().err
    assert "labels.json" in err and message in err, err


# --------------------------------------------------------------------------
# output paths that cannot be written


def _unwritable_output_args(tmp_path: Path, case: str) -> tuple[list[str], Path]:
    """The argv of `case`, whose output path lies under (or is) a regular file."""
    blocker = tmp_path / "F"
    blocker.write_text("")
    calibrate = [
        "calibrate",
        "--triplets", str(FIXTURES / "lighthouse_log" / "triplets.json"),
        "--oracle", str(FIXTURES / "lighthouse_log" / "oracle.json"),
    ]
    if case == "gen-scenes --output":
        config = write_config(tmp_path / "config.json", [small_scene()])
        return ["gen-scenes", str(config), "--output", str(blocker)], blocker
    if case == "calibrate --out-triplets":
        return [*calibrate, "--out-triplets", str(blocker / "x.json")], blocker / "x.json"
    if case == "calibrate --out-audit":
        return [*calibrate, "--out-audit", str(blocker / "x.json")], blocker / "x.json"
    scenes = _generated_scene_set(tmp_path)
    if case.startswith("refine --out"):
        jobs = case.rsplit(" ", 1)[1]
        return ["refine", "--scene", str(scenes), "--out", str(blocker / "sub"), "--use-gt-triplets",
                "--jobs", jobs], blocker / "sub"
    pred = tmp_path / "pred"
    for name in ("scene_000", "scene_001"):
        (pred / name).mkdir(parents=True)
        shutil.copy(scenes / name / "gt_labels.pgm", pred / name / "labels.pgm")
    evaluate_args = ["eval", "--scenes", str(scenes), "--pred", str(pred), "--baseline", str(pred)]
    if case == "eval --out":
        return [*evaluate_args, "--out", str(blocker / "x.json")], blocker / "x.json"
    assert case == "eval --csv"
    return [*evaluate_args, "--csv", str(blocker / "x")], blocker / "x"


@pytest.mark.parametrize(
    "case",
    [
        "gen-scenes --output",
        "calibrate --out-triplets",
        "calibrate --out-audit",
        "refine --out --jobs 1",
        "refine --out --jobs 2",
        "eval --out",
        "eval --csv",
    ],
)
def test_unwritable_output_path_exit_code(tmp_path, capsys, case):
    argv, path = _unwritable_output_args(tmp_path, case)
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"error: {path}" in err and "cannot write" in err and "Traceback" not in err, err


# --------------------------------------------------------------------------
# one exit-code path, shared defaults, exclusive flags


def test_refine_rejects_both_triplet_sources(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:  # argparse's own exit 2
        main(["refine", "--scene", str(tmp_path), "--out", str(tmp_path / "o"),
              "--triplets", str(tmp_path / "t.json"), "--use-gt-triplets"])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_main_returns_the_exit_code_each_error_class_declares(monkeypatch, capsys):
    from relfine.errors import FormatError, SceneSetMismatchError, UnknownCategoryError

    expected = {FormatError: 2, UnknownCategoryError: 3, SceneSetMismatchError: 4}
    for error, code in expected.items():
        assert error.exit_code == code

        def fail(args, error=error):
            raise error("boom")

        monkeypatch.setattr(cli, "cmd_gradcheck", fail)
        assert main(["gradcheck"]) == code
        assert capsys.readouterr().err == "error: boom\n"


def test_parser_defaults_are_the_library_defaults():
    parser = cli.build_parser()
    alpha = inspect.signature(cli.run_gradcheck).parameters["alpha"].default
    assert parser.parse_args(["gradcheck"]).alpha == alpha


@pytest.mark.parametrize("command", ["gen-scenes", "calibrate", "refine", "eval", "gradcheck"])
def test_subcommand_help_renders(command, capsys):
    # argparse formats help strings only when --help runs, so a bad format
    # string or a stale flag shows only here.
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())  # the same at any terminal width
    assert text.startswith(f"usage: relfine {command}") and "%(" not in text
    removed_flags = ("--threshold", "--swap-args", "--keep-background", "--config", "--reduction", "--steps",
                     "--learning-rate", "--seed", "--sizes", "--instances", "--tolerance", "--group-by")
    for removed in removed_flags:
        assert removed not in text, (command, removed)
    if command == "refine":
        assert f"(default {RefineConfig().alpha})" in text


def test_argparse_errors_do_not_depend_on_the_terminal_width(monkeypatch, capsys):
    errors = set()
    for columns in ("40", "60", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        with pytest.raises(SystemExit) as exc:  # argparse's own exit 2
            main(["refine", "--scene", "x", "--out", "y", "--use-gt-triplets", "--jobs", "0"])
        assert exc.value.code == 2
        errors.add(capsys.readouterr().err)
    assert len(errors) == 1, errors


# --------------------------------------------------------------------------
# process pool, manifest names, grid shapes and PGM headers


class _InProcessPool:
    """Stands in for ProcessPoolExecutor: records max_workers and maps in-process."""

    def __init__(self, started: list[int], max_workers: int):
        started.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def map(self, fn, items):
        return list(map(fn, items))


@pytest.mark.parametrize("jobs, scenes, started", [("64", 3, [3]), ("2", 3, [2]), ("64", 1, [])])
def test_jobs_start_at_most_one_worker_per_scene(tmp_path, monkeypatch, jobs, scenes, started):
    pools: list[int] = []
    monkeypatch.setattr(cli, "ProcessPoolExecutor", functools.partial(_InProcessPool, pools))
    config = write_config(tmp_path / "config.json",
                          [small_scene(f"scene_{i:03d}", seed=i + 1) for i in range(scenes)])
    assert main(["gen-scenes", str(config), "--jobs", jobs]) == 0
    assert main(["refine", "--scene", str(tmp_path / "scenes"), "--out", str(tmp_path / "out"),
                 "--use-gt-triplets", "--jobs", jobs]) == 0
    assert pools == started * 2


def test_refine_and_eval_reject_a_repeated_manifest_name(tmp_path, capsys):
    scenes = _generated_scene_set(tmp_path)
    pred = _gt_predictions(tmp_path, scenes)
    entries = [{"name": "scene_000", "path": "scene_000"}, {"name": "scene_000", "path": "scene_001"}]
    (scenes / "manifest.json").write_text(json.dumps({"scenes": entries}))
    out = tmp_path / "out"
    for argv in (["refine", "--scene", str(scenes), "--out", str(out), "--use-gt-triplets"],
                 ["eval", "--scenes", str(scenes), "--pred", str(pred)],
                 ["eval", "--scenes", str(scenes), "--pred", str(pred), "--baseline", str(pred)]):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert f"{scenes / 'manifest.json'}: scenes[1]: duplicate scene name 'scene_000'" in err, err
    assert not out.exists()


@pytest.mark.parametrize("grid", ["gt_labels.pgm", "probs/b.rsgf"])
def test_refine_rejects_a_bundle_grid_of_another_shape_before_writing(tmp_path, capsys, grid):
    from relfine.grid import LabelMap, write_labels_pgm, write_rsgf

    bundle = _generated_scene_set(tmp_path) / "scene_000"
    if grid == "gt_labels.pgm":
        write_labels_pgm(bundle / grid, LabelMap(np.zeros((8, 8), dtype=np.int64), 3))
    else:
        write_rsgf(bundle / grid, np.full((8, 8), 0.5))
    out = tmp_path / "out"
    assert main(["refine", "--scene", str(bundle), "--out", str(out), "--use-gt-triplets"]) == 2
    err = capsys.readouterr().err
    assert f"{bundle / grid}: grid is 8x8, but {bundle / 'spec.json'} is 16x16" in err, err
    assert not out.exists()


@pytest.mark.parametrize("value, shown", [(float("nan"), "nan"), (2.0, "2.0")], ids=["nan", "2.0"])
def test_a_bundle_probability_out_of_range_names_its_grid(tmp_path, capsys, value, shown):
    from relfine.grid import read_rsgf, write_rsgf

    bundle = _generated_scene_set(tmp_path) / "scene_000"
    grid = bundle / "probs" / "a.rsgf"
    values = read_rsgf(grid)
    values[3, 4] = value
    write_rsgf(grid, values)
    out = tmp_path / "out"
    for argv in (["refine", "--scene", str(bundle), "--out", str(out), "--use-gt-triplets"],
                 ["eval", "--scenes", str(bundle), "--pred", str(bundle)]):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err == f"error: {grid}: value out of range at (3,4): {shown}\n", err
    assert not out.exists()


def test_eval_names_a_prediction_of_another_shape(tmp_path, capsys):
    from relfine.grid import LabelMap, write_labels_pgm

    scenes = _generated_scene_set(tmp_path)
    pred = _gt_predictions(tmp_path, scenes)
    labels = pred / "scene_001" / "labels.pgm"
    write_labels_pgm(labels, LabelMap(np.zeros((8, 8), dtype=np.int64), 3))
    assert main(["eval", "--scenes", str(scenes), "--pred", str(pred)]) == 2
    assert f"{labels}: grid is 8x8, but scene 'scene_001' is 16x16" in capsys.readouterr().err


def test_signed_pgm_dimensions_exit_2_naming_the_file(tmp_path, capsys):
    scenes = _generated_scene_set(tmp_path)
    pred = _gt_predictions(tmp_path, scenes)
    bad = pred / "scene_000" / "labels.pgm"
    bad.write_bytes(b"P5\n-2 -2\n255\n" + bytes(4))
    for argv in (["calibrate", "--triplets", str(scenes / "scene_000" / "triplets.json"),
                  "--geometric", "--labels", str(bad)],
                 ["eval", "--scenes", str(scenes), "--pred", str(pred)]):
        assert main(argv) == 2, argv
        assert f"{bad}: malformed PGM header" in capsys.readouterr().err


# --------------------------------------------------------------------------
# refine never writes over its input, label-map errors name the file, --jobs
# is at least 1, and the module entry point returns each exit code


def _digests(root: Path) -> dict[Path, bytes]:
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("form", ["bundle", "scene set"])
def test_refine_rejects_an_output_that_is_its_input(tmp_path, capsys, form):
    scenes = _generated_scene_set(tmp_path)
    scene = scenes / "scene_000" if form == "bundle" else scenes
    before = _digests(tmp_path)
    out = scene / "probs" / ".." if form == "bundle" else scenes / "scene_001" / ".."
    assert main(["refine", "--scene", str(scene), "--out", str(out), "--use-gt-triplets"]) == 2
    err = capsys.readouterr().err
    assert str(out) in err and str(scene) in err and "overwrite" in err, err
    assert _digests(tmp_path) == before


def test_refine_rejects_an_output_bundle_that_is_its_input_in_a_scene_set(tmp_path, capsys):
    scenes = _generated_scene_set(tmp_path)
    out = tmp_path / "view"
    out.mkdir()
    (out / "scene_001").symlink_to(scenes / "scene_001", target_is_directory=True)
    before = _digests(scenes)
    assert main(["refine", "--scene", str(scenes), "--out", str(out), "--use-gt-triplets"]) == 2
    err = capsys.readouterr().err
    assert f"{out / 'scene_001'} is the input bundle {scenes / 'scene_001'}" in err, err
    assert _digests(scenes) == before
    assert not (out / "scene_000").exists()


def _labels_args(tmp_path: Path, where: str, name: str) -> tuple[list[str], Path]:
    """An argv that reads the label map at the returned path: an eval
    prediction, or the --labels of calibrate --geometric."""
    scenes = _generated_scene_set(tmp_path)
    pred = _gt_predictions(tmp_path, scenes)
    if where == "eval":
        return ["eval", "--scenes", str(scenes), "--pred", str(pred)], pred / "scene_000" / name
    return (["calibrate", "--triplets", str(scenes / "scene_000" / "triplets.json"), "--geometric",
             "--labels", str(tmp_path / name)], tmp_path / name)


@pytest.mark.parametrize("where", ["eval", "calibrate"])
@pytest.mark.parametrize(
    "content, message",
    [
        (b"P5\n2 1\n255\n\x00\x09", "labels must lie in [0, 3), found range [0, 9]"),
        (b"P5\n0 0\n255\n", "label map must be 2-D and non-empty, got shape (0, 0)"),
    ],
    ids=["value 9", "empty"],
)
def test_label_map_errors_name_the_file(tmp_path, capsys, where, content, message):
    argv, labels = _labels_args(tmp_path, where, "labels.pgm")
    labels.write_bytes(content)
    assert main(argv) == 2
    assert f"error: {labels}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["eval", "calibrate"])
@pytest.mark.parametrize("grid_format", ["rsgf", "json"])
def test_a_label_map_that_is_not_pgm_exits_2(tmp_path, capsys, where, grid_format):
    # Label maps are PGM P5 only: a grid of valid labels in another format is
    # refused, though the file is named labels.pgm.
    from relfine.grid import write_rsgf

    argv, labels = _labels_args(tmp_path, where, "labels.pgm")
    if grid_format == "rsgf":
        write_rsgf(labels, np.array([[0.0, 1.0], [2.0, 0.0]]))
    else:
        labels.write_text(json.dumps({"height": 2, "width": 2, "values": [0, 1, 2, 0]}))
    assert main(argv) == 2
    assert f"error: {labels}: not a binary PGM (P5) file" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["0", "-3"])
@pytest.mark.parametrize("command", ["gen-scenes", "refine"])
def test_jobs_below_one_is_rejected_at_parsing(tmp_path, capsys, command, jobs):
    config = write_config(tmp_path / "config.json", [small_scene()])
    out = tmp_path / "out"
    if command == "gen-scenes":
        argv = ["gen-scenes", str(config), "--output", str(out)]
    else:
        assert main(["gen-scenes", str(config)]) == 0
        argv = ["refine", "--scene", str(tmp_path / "scenes"), "--out", str(out), "--use-gt-triplets"]
    with pytest.raises(SystemExit) as exc:  # argparse's own exit 2
        main([*argv, "--jobs", jobs])
    assert exc.value.code == 2
    assert f"argument --jobs: must be at least 1, got {jobs}" in capsys.readouterr().err
    assert not out.exists()


def test_module_entry_point_exit_codes(tmp_path):
    src = str(Path(cli.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def run(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "relfine.cli", *args],
                              capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)

    assert run("gradcheck").returncode == 0
    assert run("gradcheck", "--corrupt-gradient").returncode == 1
    missing = run("eval", "--scenes", str(tmp_path / "missing"), "--pred", str(tmp_path / "pred"))
    assert missing.returncode == 2
    assert missing.stderr.startswith("error: ") and "Traceback" not in missing.stderr, missing.stderr
