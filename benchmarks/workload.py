"""One benchmark workload in a fresh process: set up, run timed passes, check.

run.py starts this script with PYTHONPATH=src and single-threaded BLAS; it
prints one JSON document on its last stdout line. relfine is driven only
through its public API and relfine.cli.main, and sees only the files and
values the generators here produce from the seed.

    python3 benchmarks/workload.py --workload refine-256 --seed 1 --seconds 45 \
        --trace 0 --work .bench_work/refine-256 [--setup-only]
"""

from __future__ import annotations

import time

START = time.perf_counter()  # set-up time counts the imports below

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import relfine
import relfine.cli
from relfine.scenes import spec_to_dict

import inputs
import reference as ref
from stats import percentile, samples_beyond, tail_percentile, tally_operations
from tracing import ROOT_SPAN, Tracer, install, layer_metrics, uninstall
from yardstick import Yardstick, arrays, records

JOBS = 2  # --jobs for the CLI flow; this box has two cores
GOLDEN_MIOU = 0.7080482241772564  # seed-42 fixture, pinned in tests/test_refine.py


@dataclass
class Pass:
    # timed operation -> seconds; together they are the pass's wall time
    times: dict[str, float] = field(default_factory=dict)
    latencies: list[float] = field(default_factory=list)
    # op id -> (ran without error, digest of its outputs)
    ops: dict[str, tuple[bool, str | None]] = field(default_factory=dict)
    layers: dict[str, float] | None = None
    yardstick: Yardstick | None = None  # runs in untraced passes only

    @property
    def wall(self) -> float:
        return sum(self.times.values())

    @property
    def cost(self) -> float:
        """Wall time in units of this pass's median yardstick run."""
        return self.wall / self.yardstick.median_s

    @contextlib.contextmanager
    def timed(self, op: str):
        if self.yardstick is not None:
            self.yardstick.keep_pace(self.wall)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.times[op] = time.perf_counter() - t0


def digest(*paths: Path) -> str | None:
    """sha256 over files, or over every file below a directory; None if any is missing."""
    h = hashlib.sha256()
    for path in paths:
        files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
        if not path.exists() or not files:
            return None
        for f in files:
            h.update(str(f.relative_to(path.parent)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()


def cli(argv: list[str]) -> bool:
    """Run one CLI command in-process; True when it exits 0."""
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return relfine.cli.main(argv) == 0
        except Exception:  # one failed operation must not end the run
            traceback.print_exc(file=sys.stderr)
            return False


def read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def calibration_matches(out: Path, audit: Path, expected) -> bool:
    triplets, counts = expected
    got = [(t["subject"], t["relation"], t["object"], t["stage"]) for t in read_json(out)["triplets"]]
    return got == triplets and read_json(audit) == counts


def golden_pin() -> bool:
    spec = relfine.random_grid_spec(42, n_categories=2, noise_sigma=0.15, confusion_strength=0.5)
    scene = relfine.generate_scene(spec)
    state, _ = relfine.refine(scene.init_probs, scene.gt_triplets)
    labels = relfine.argmax_labels(state)
    return relfine.miou(labels, scene.gt_labels, len(scene.categories)) == GOLDEN_MIOU


CHECK_ERRORS = (OSError, ValueError, KeyError, IndexError, TypeError)


# ---------------------------------------------------------------------------
# e2e-64: the CLI flow over 50 small scenes
# ---------------------------------------------------------------------------


class CliFlow:
    """gen-scenes -> calibrate --geometric per scene -> refine --alpha 0 ->
    refine -> eval --baseline, in-process through relfine.cli.main."""

    name = "e2e-64"
    items_per_pass = 50  # scenes
    stages = ("gen_scenes", "calibrate", "refine_baseline", "refine", "eval")
    yardstick = staticmethod(arrays)  # refine's small-array numpy work dominates
    size = 64
    item_seeds = "scene i: random_grid_spec(seed*1000+i, n_categories=2+i%7, 64x64)"

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.inputs = work / "inputs"
        self.out = work / "out"
        self.specs: list[tuple[str, dict, list[str]]] = []
        self.logs: dict[str, list] = {}

    def setup(self) -> None:
        self.inputs.mkdir(parents=True, exist_ok=True)
        entries = []
        for i in range(self.items_per_pass):
            spec = spec_to_dict(
                relfine.random_grid_spec(
                    self.seed * 1000 + i, n_categories=2 + i % 7, height=self.size, width=self.size
                )
            )
            name = f"s{i:03d}"
            roster = [ref.BACKGROUND] + [p["category"] for p in spec["placements"]]
            self.specs.append((name, spec, roster))
            entries.append({"name": name, **spec})
            self.logs[name] = inputs.scene_log(self.seed, i, roster, ref.centroids(spec))
            inputs.write_triplets(self.inputs / f"{name}.log.json", roster, self.logs[name])
        (self.inputs / "run.json").write_text(json.dumps({"scenes": entries}), encoding="utf-8")

    def prepare(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)
        (self.out / "calib").mkdir(parents=True)

    def run_pass(self, p: Pass) -> None:
        scenes, calib = self.out / "scenes", self.out / "calib"
        base, refined, report = self.out / "baseline", self.out / "refined", self.out / "eval.json"
        jobs = ["--jobs", str(JOBS)]

        def timed(op: str, argv: list[str]) -> bool:
            with p.timed(op):
                return cli(argv)

        gen_ok = timed("gen_scenes", ["gen-scenes", str(self.inputs / "run.json"), "--output", str(scenes), *jobs])
        calib_ok = {}
        for name, _, _ in self.specs:
            calib_ok[name] = timed(f"calibrate/{name}", [
                "calibrate", "--triplets", str(self.inputs / f"{name}.log.json"),
                "--geometric", "--labels", str(scenes / name / "gt_labels.pgm"),
                "--out-triplets", str(calib / f"{name}.json"),
                "--out-audit", str(calib / f"{name}.audit.json"),
            ])
        common = ["--scene", str(scenes), "--use-gt-triplets", *jobs]
        base_ok = timed("refine_baseline", ["refine", *common, "--out", str(base), "--alpha", "0"])
        refine_ok = timed("refine", ["refine", *common, "--out", str(refined)])
        eval_ok = timed("eval", ["eval", "--scenes", str(scenes), "--pred", str(refined),
                                 "--baseline", str(base), "--out", str(report)])
        for name, _, _ in self.specs:
            p.ops[f"gen/{name}"] = (gen_ok, digest(scenes / name))
            p.ops[f"calibrate/{name}"] = (
                calib_ok[name], digest(calib / f"{name}.json", calib / f"{name}.audit.json")
            )
            p.ops[f"refine_baseline/{name}"] = (base_ok, digest(base / name))
            p.ops[f"refine/{name}"] = (refine_ok, digest(refined / name))
        p.ops["eval"] = (eval_ok, digest(report))

    def check(self) -> tuple[dict[str, bool], dict[str, float]]:
        ok: dict[str, bool] = {}
        scenes, calib = self.out / "scenes", self.out / "calib"
        reports = {"refine_baseline": {}, "refine": {}}
        for name, spec, roster in self.specs:
            bundle = scenes / name
            gt = ref.paint_labels(spec, roster)
            triplets = ref.gt_triplets(spec, roster)
            try:
                saved = read_json(bundle / "triplets.json")
                ok[f"gen/{name}"] = (
                    read_json(bundle / "spec.json") == spec
                    and saved["categories"] == roster
                    and [(t["subject"], t["relation"], t["object"]) for t in saved["triplets"]] == triplets
                    and np.array_equal(ref.read_pgm(bundle / "gt_labels.pgm"), gt)
                )
            except CHECK_ERRORS:
                ok[f"gen/{name}"] = False
            expected = ref.calibrate(self.logs[name], *ref.geometric_answers(ref.centroids(spec)))
            try:
                ok[f"calibrate/{name}"] = calibration_matches(
                    calib / f"{name}.json", calib / f"{name}.audit.json", expected
                )
            except CHECK_ERRORS:
                ok[f"calibrate/{name}"] = False
            index = [(roster.index(s), r, roster.index(o)) for s, r, o in triplets]
            for stage, out_dir, alpha in (("refine_baseline", "baseline", 0.0), ("refine", "refined", 0.1)):
                op = f"{stage}/{name}"
                try:
                    init = np.stack([ref.read_rsgf(bundle / "probs" / f"{c}.rsgf") for c in roster])
                    want = ref.refine_maps(init, index, alpha=alpha)
                    result = self.out / out_dir / name
                    got = read_json(result / "report.json")["metrics"]
                    probs = np.stack([ref.read_rsgf(result / "probs" / f"{c}.rsgf") for c in roster])
                    reports[stage][name] = got
                    ok[op] = agrees(got, probs, want, gt, index)
                except CHECK_ERRORS:
                    ok[op] = False
        quality = {}
        try:
            doc = read_json(self.out / "eval.json")
            per_scene = {s["scene"]: s["miou"] for s in doc["scenes"]}
            ok["eval"] = (
                per_scene == {n: r["miou"] for n, r in reports["refine"].items()}
                and abs(doc["aggregate"]["miou"] - statistics.fmean(per_scene.values())) < 1e-12
                and abs(doc["baseline_aggregate"]["miou"]
                        - statistics.fmean(r["miou"] for r in reports["refine_baseline"].values())) < 1e-12
            )
            quality = {
                "miou_gain_pts": 100.0 * (doc["aggregate"]["miou"] - doc["baseline_aggregate"]["miou"]),
                "constraint_satisfaction": doc["aggregate"]["constraint_satisfaction"],
            }
        except CHECK_ERRORS:
            ok["eval"] = False
        return ok, quality


def agrees(got: dict, probs: np.ndarray, want: np.ndarray, gt: np.ndarray, index) -> bool:
    """relfine's refined maps and reported metrics against the reference maps."""
    labels = np.argmax(want, axis=0)
    return (
        probs.shape == want.shape
        and float(np.abs(probs - want).max()) <= ref.PROB_TOLERANCE
        and abs(got["miou"] - ref.miou(labels, gt, len(want))) <= ref.MIOU_TOLERANCE
        and abs(got["constraint_satisfaction"] - ref.satisfaction(labels, index)) <= ref.SATISFACTION_TOLERANCE
    )


# ---------------------------------------------------------------------------
# refine-256: the library path on large grids
# ---------------------------------------------------------------------------


class LargeRefine:
    """refine -> argmax_labels -> evaluate_scene on 256x256 scenes with 8
    categories (84 triplets each), one scene per item."""

    name = "refine-256"
    items_per_pass = 4  # scenes
    stages = ()
    yardstick = staticmethod(arrays)
    size = 256
    item_seeds = "scene i: random_grid_spec(seed*1000+i, n_categories=8, 256x256)"

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.scenes = []
        self.last: list = []

    def setup(self) -> None:
        self.scenes = [
            relfine.generate_scene(
                relfine.random_grid_spec(self.seed * 1000 + i, n_categories=8, height=self.size, width=self.size)
            )
            for i in range(self.items_per_pass)
        ]

    def prepare(self) -> None:
        self.last = []

    def run_pass(self, p: Pass) -> None:
        """Each scene is one timed operation; its digest is taken after its
        timed section, so it stays outside the time and does not keep a
        scene's state alive past the next refine."""
        for k, scene in enumerate(self.scenes):
            op = f"scene/{k}"
            try:
                with p.timed(op):
                    state, _ = relfine.refine(scene.init_probs, scene.gt_triplets)
                    labels = relfine.argmax_labels(state)
                    report = relfine.evaluate_scene(labels, scene)
            except Exception:  # one failed operation must not end the run
                traceback.print_exc(file=sys.stderr)
                p.ops[op] = (False, None)
                self.last.append((None, None))
                continue
            p.latencies.append(p.times[op])
            h = hashlib.sha256(state.logits.tobytes())
            h.update(labels.labels.tobytes())
            h.update(json.dumps(report.to_dict(), sort_keys=True).encode())
            p.ops[op] = (True, h.hexdigest())
            self.last.append((report.to_dict(), state.probs))

    def check(self) -> tuple[dict[str, bool], dict[str, float]]:
        ok, gains, satisfied = {}, [], []
        for k, (scene, (got, probs)) in enumerate(zip(self.scenes, self.last)):
            roster = list(scene.categories)
            index = [(roster.index(t.subject), t.relation.value, roster.index(t.object)) for t in scene.gt_triplets]
            init = np.stack([scene.init_probs[c].values for c in roster])
            gt = scene.gt_labels.labels
            want = ref.refine_maps(init, index)
            ok[f"scene/{k}"] = got is not None and agrees(got, probs, want, gt, index)
            if got is not None:
                unrefined = np.argmax(ref.refine_maps(init, index, alpha=0.0), axis=0)
                baseline = ref.miou(unrefined, gt, len(roster))
                gains.append(100.0 * (got["miou"] - baseline))
                satisfied.append(got["constraint_satisfaction"])
        quality = {}
        if gains:
            quality = {
                "miou_gain_pts": statistics.fmean(gains),
                "constraint_satisfaction": statistics.fmean(satisfied),
            }
        return ok, quality


# ---------------------------------------------------------------------------
# calibrate-corpus: calibrate --oracle over recorded logs
# ---------------------------------------------------------------------------


class CalibrationCorpus:
    """relfine calibrate --oracle over 200 recorded logs of 8..24 categories."""

    name = "calibrate-corpus"
    items_per_pass = 200  # logs
    stages = ()
    yardstick = staticmethod(records)
    item_seeds = "log i: numpy default_rng([seed, i]), 8 + i%17 categories"

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.inputs = work / "inputs"
        self.out = work / "out"

    def setup(self) -> None:
        self.inputs.mkdir(parents=True, exist_ok=True)
        for i in range(self.items_per_pass):
            names, log, holds, choose = inputs.corpus_log(self.seed, i)
            inputs.write_triplets(self.inputs / f"{i:03d}.log.json", names, log)
            inputs.write_oracle(self.inputs / f"{i:03d}.oracle.json", holds, choose)

    def prepare(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)

    def run_pass(self, p: Pass) -> None:
        ran = []
        for i in range(self.items_per_pass):
            with p.timed(f"log/{i:03d}"):
                ran.append(cli([
                    "calibrate", "--triplets", str(self.inputs / f"{i:03d}.log.json"),
                    "--oracle", str(self.inputs / f"{i:03d}.oracle.json"),
                    "--out-triplets", str(self.out / f"{i:03d}.json"),
                    "--out-audit", str(self.out / f"{i:03d}.audit.json"),
                ]))
            p.latencies.append(p.times[f"log/{i:03d}"])
        for i, ok in enumerate(ran):
            p.ops[f"log/{i:03d}"] = (ok, digest(self.out / f"{i:03d}.json", self.out / f"{i:03d}.audit.json"))

    def check(self) -> tuple[dict[str, bool], dict[str, float]]:
        ok = {}
        for i in range(self.items_per_pass):
            # Regenerated rather than kept, so peak RSS stays relfine's.
            _, log, holds, choose = inputs.corpus_log(self.seed, i)
            expected = ref.calibrate(
                log,
                lambda s, r, o: holds.get((s, r, o), "unknown"),
                lambda s, first, second, o: choose.get((s, first, second, o), "neither"),
            )
            try:
                ok[f"log/{i:03d}"] = calibration_matches(
                    self.out / f"{i:03d}.json", self.out / f"{i:03d}.audit.json", expected
                )
            except CHECK_ERRORS:
                ok[f"log/{i:03d}"] = False
        return ok, {}


WORKLOADS = {w.name: w for w in (CliFlow, LargeRefine, CalibrationCorpus)}


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------


def plain_pass(workload) -> Pass:
    p = Pass(yardstick=Yardstick(workload.yardstick))
    workload.run_pass(p)
    p.yardstick.keep_pace(p.wall)
    return p


def traced_pass(workload, tracer: Tracer) -> Pass:
    p = Pass()
    patches = install(tracer)
    token = tracer.open()
    try:
        workload.run_pass(p)
    finally:
        tracer.close(token, ROOT_SPAN)
        uninstall(patches)
    p.layers = layer_metrics(*tracer.collect(), JOBS)
    return p


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest child, in MiB."""
    kib = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    return kib / 1024.0


def summarize(workload, passes: list[Pass], trace: bool) -> dict[str, float]:
    plain = [p for p in passes if p.layers is None]
    wall = statistics.median(p.wall for p in plain)
    metrics = {
        "pass_cost": statistics.median(p.cost for p in plain),
        "wall_s": wall,
        "items_per_s": workload.items_per_pass / wall,
    }
    for stage in workload.stages:
        metrics[f"{stage}_s"] = statistics.median(
            sum(t for op, t in p.times.items() if op.partition("/")[0] == stage) for p in plain
        )
    latencies = [x for p in plain for x in p.latencies]
    if latencies:
        metrics["latency_p50_ms"] = 1000.0 * percentile(latencies, 50)
        metrics["latency_p90_ms"] = 1000.0 * percentile(latencies, 90)
        metrics["latency_samples"] = len(latencies)
        metrics["latency_beyond_p90"] = samples_beyond(latencies, 90)
        tail = tail_percentile(latencies)
        if tail is not None:
            metrics["latency_tail_pct"], tail_s, metrics["latency_beyond_tail"] = tail
            metrics["latency_tail_ms"] = 1000.0 * tail_s
    if trace:
        traced = sorted((p for p in passes if p.layers is not None), key=lambda p: p.layers["trace.wall_s"])
        # The layers of the median traced pass, so that they add up exactly.
        metrics.update(traced[(len(traced) - 1) // 2].layers)
        metrics["trace.overhead_pct"] = 100.0 * (statistics.median(p.wall for p in traced) / wall - 1.0)
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, args.work)
    golden = golden_pin()
    workload.setup()
    setup_s = time.perf_counter() - START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "golden_pin": golden}))
        return 0

    tracer = None
    if args.trace:
        (args.work / "trace").mkdir(parents=True, exist_ok=True)
        tracer = Tracer(args.work / "trace")
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        workload.prepare()
        if tracer is not None and len(passes) % 2 == 1:
            passes.append(traced_pass(workload, tracer))
        else:
            passes.append(plain_pass(workload))
        elapsed = time.perf_counter() - start
        if len(passes) >= 2 and elapsed * (len(passes) + 1) / len(passes) > args.seconds:
            break
    rss = peak_rss_mb()

    checked, quality = workload.check()
    tally = tally_operations([p.ops for p in passes], checked, setup_checks=[golden])

    metrics = {"setup_s": setup_s, **summarize(workload, passes, bool(args.trace))}
    metrics.update(quality)
    metrics["peak_rss_mb"] = rss
    metrics["error_rate"] = tally.error_rate
    doc = {
        "workload": workload.name,
        "passes": len(passes),
        "pass_walls": [p.wall for p in passes],
        "pass_costs": [p.cost for p in passes if p.layers is None],
        "traced_passes": sum(p.layers is not None for p in passes),
        "ops_per_pass": len(passes[0].ops),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "golden_pin": golden,
        "metrics": metrics,
        "environment": {
            "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "relfine": relfine.__version__,
            "seed": args.seed,
            "item_seeds": workload.item_seeds,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "jobs": JOBS,
        },
    }
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
