"""Every output of the fixture flow, pinned against a committed reference.

The flow runs `demos/fixture_config.json` in-process at `--jobs 1`:
gen-scenes, calibrate `--geometric`, refine at `--alpha 0`, at the default
alpha and with `--triplets`, eval `--baseline --csv`, then commands that
exit with codes 2, 3 and 4. It writes only under pytest's `tmp_path`.

- Discrete outputs are pinned by sha256: label maps, triplet and audit
  files, the manifest, the CSV and the eval report, every string, integer and
  `satisfied` flag of the refine reports, and each command's stdout, stderr
  and exit code.
- Floats may move in their last bits between machines (README), so the
  probability grids (`*.rsgf`) and the float fields of each `report.json`
  are compared within TOLERANCE of the reference, relative to each field's
  absolute sum, through PROJECTIONS fixed random projections per file and
  field. RSGF1 grids hold float32, so their comparison also admits
  FLOAT32_FLIPS rounding steps of 2**-24.

A failure names the file and the field that moved. The test also prints the
smallest top-1/top-2 probability gap among the refined pixels: labels stay
equal across machines only while that gap is far above the float drift.

A change that moves outputs on purpose rewrites the reference with

    PYTHONPATH=src python3 tests/fixtures/regenerate_output_digest.py

and says which outputs moved, and by how much, in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

from relfine.cli import main
from relfine.grid import read_rsgf

DEMO_CONFIG = Path(__file__).parent.parent / "demos" / "fixture_config.json"
REFERENCE = Path(__file__).parent / "fixtures" / "output_digest.json"
TOLERANCE = 1e-9
FLOAT32_FLIPS = 8
PROJECTIONS = 3

#: Argument lists, run in order from the work directory; "CONFIG" stands for
#: the demo config. The last six fail on purpose.
COMMANDS = (
    ("gen-scenes", "CONFIG", "--output", "scenes", "--jobs", "1"),
    ("calibrate", "--triplets", "scenes/scene_001/triplets.json", "--geometric",
     "--labels", "scenes/scene_001/gt_labels.pgm", "--out-triplets", "calibrated.json", "--out-audit", "audit.json"),
    ("refine", "--scene", "scenes", "--out", "baseline", "--use-gt-triplets", "--alpha", "0", "--jobs", "1"),
    ("refine", "--scene", "scenes", "--out", "refined", "--use-gt-triplets", "--jobs", "1"),
    ("refine", "--scene", "scenes/scene_001", "--out", "calibrated", "--triplets", "calibrated.json", "--jobs", "1"),
    ("eval", "--scenes", "scenes", "--pred", "refined", "--baseline", "baseline",
     "--out", "eval.json", "--csv", "buckets.csv"),
    ("gen-scenes", "missing.json"),
    ("refine", "--scene", "scenes", "--out", "nowhere"),
    ("refine", "--scene", "scenes", "--out", "nowhere", "--use-gt-triplets", "--alpha", "-1"),
    ("eval", "--scenes", "scenes", "--pred", "refined", "--csv", "nowhere.csv"),
    ("refine", "--scene", "scenes/scene_000", "--out", "nowhere", "--triplets", "calibrated.json"),
    ("eval", "--scenes", "scenes", "--pred", "calibrated"),
)

#: Run outputs whose labels come from refined probabilities.
REFINED_RUNS = ("refined", "calibrated")


def _sha(data: bytes | str) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def _run(argv: tuple[str, ...]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([str(DEMO_CONFIG) if arg == "CONFIG" else arg for arg in argv])
    return {"argv": " ".join(argv), "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _leaves(doc, path: str = ""):
    """(field, value) for every scalar of a JSON document; a field names its
    keys and writes each list index as []."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(doc, list):
        for value in doc:
            yield from _leaves(value, f"{path}[]")
    else:
        yield path, doc


def _projections(values: np.ndarray) -> dict:
    weights = [np.random.default_rng(k).uniform(-1.0, 1.0, values.size) for k in range(PROJECTIONS)]
    return {"scale": float(np.abs(values).sum()), "projections": [float(w @ values) for w in weights]}


def _fields(path: Path) -> dict:
    """A float-bearing file as {"discrete": {field: sha256}, "floats": {field: projections}}."""
    if path.suffix == ".rsgf":
        grid = read_rsgf(path)
        return {"discrete": {"shape": _sha(json.dumps(grid.shape))}, "floats": {"values": _projections(grid.ravel())}}
    groups: dict[str, list] = {}
    for field, value in _leaves(json.loads(path.read_text())):
        groups.setdefault(field, []).append(value)
    discrete = {f: _sha(json.dumps(v)) for f, v in groups.items() if not any(isinstance(x, float) for x in v)}
    floats = {f: _projections(np.array(v, dtype=np.float64)) for f, v in groups.items() if f not in discrete}
    return {"discrete": discrete, "floats": floats}


def _smallest_gap(work: Path) -> float:
    gaps = []
    for run in REFINED_RUNS:
        for probs in sorted((work / run).rglob("probs")):
            stack = np.sort(np.stack([read_rsgf(p) for p in sorted(probs.glob("*.rsgf"))]), axis=0)
            gaps.append(float((stack[-1] - stack[-2]).min()))
    return min(gaps, default=float("nan"))


def collect_digest(work: Path) -> tuple[dict, float, list[dict]]:
    """Run the flow in the empty directory `work`. Returns its digest, the
    smallest top-1/top-2 probability gap among the refined pixels, and each
    command's exit code and output."""
    cwd = os.getcwd()
    os.chdir(work)
    try:
        runs = [_run(argv) for argv in COMMANDS]
    finally:
        os.chdir(cwd)
    commands = [
        {"argv": r["argv"], "exit": r["exit"], "stdout": _sha(r["stdout"]), "stderr": _sha(r["stderr"])} for r in runs
    ]
    files, fields = {}, {}
    for path in sorted(p for p in work.rglob("*") if p.is_file()):
        name = path.relative_to(work).as_posix()
        if path.suffix == ".rsgf" or path.name == "report.json":
            fields[name] = _fields(path)
        else:
            files[name] = _sha(path.read_bytes())
    return {"commands": commands, "files": files, "fields": fields}, _smallest_gap(work), runs


def _differences(got: dict, want: dict, runs: list[dict]) -> list[str]:
    found = []
    for run, g, w in zip(runs, got["commands"], want["commands"]):
        if g != w:
            found.append(f"`{w['argv']}` changed: exit {run['exit']}, stdout {run['stdout']!r}, stderr {run['stderr']!r}")
    if len(got["commands"]) != len(want["commands"]):
        found.append(f"{len(got['commands'])} commands ran, the reference has {len(want['commands'])}")
    for kind in ("files", "fields"):
        for name in sorted(got[kind].keys() ^ want[kind].keys()):
            found.append(f"{name}: {'new' if name in got[kind] else 'missing'} file")
    for name in sorted(got["files"].keys() & want["files"].keys()):
        if got["files"][name] != want["files"][name]:
            found.append(f"{name}: bytes changed")
    for name in sorted(got["fields"].keys() & want["fields"].keys()):
        g, w = got["fields"][name], want["fields"][name]
        for kind in ("discrete", "floats"):
            for field in sorted(g[kind].keys() ^ w[kind].keys()):
                found.append(f"{name}: {field} is {'new' if field in g[kind] else 'missing'}")
        for field in sorted(g["discrete"].keys() & w["discrete"].keys()):
            if g["discrete"][field] != w["discrete"][field]:
                found.append(f"{name}: {field} changed")
        slack = FLOAT32_FLIPS * 2.0**-24 if name.endswith(".rsgf") else 0.0
        for field in sorted(g["floats"].keys() & w["floats"].keys()):
            reference = w["floats"][field]
            bound = TOLERANCE * max(1.0, reference["scale"]) + slack
            moved = max(abs(a - b) for a, b in zip(g["floats"][field]["projections"], reference["projections"]))
            if moved > bound:
                found.append(f"{name}: {field} moved by {moved:.3e}, beyond {bound:.3e}")
    return found


def test_fixture_flow_outputs_match_the_reference(tmp_path):
    got, gap, runs = collect_digest(tmp_path)
    print(f"smallest top-1/top-2 probability gap among refined pixels: {gap:.3e}")
    assert [r["exit"] for r in runs] == [0, 0, 0, 0, 0, 0, 2, 2, 2, 2, 3, 4]
    want = json.loads(REFERENCE.read_text())
    differences = _differences(got, want, runs)
    assert not differences, "\n".join(differences)
