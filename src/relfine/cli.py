"""Command-line entry point: scene generation, triplet calibration,
refinement, evaluation, and gradient checking.

Exit codes are stable: 0 success, 2 invalid spec/config/format, 3 a
constraint or query names an unknown category, 4 mismatched scene sets,
1 gradient-check failure.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict
from pathlib import Path
from typing import Callable, Sequence, TypeVar, get_args

from .errors import (
    FormatError,
    RelfineError,
    SceneSetMismatchError,
    load_json_object,
    require_keys,
    require_safe_name,
    write_json_object,
    writing_to,
)
from .evaluate import EvalReport, GroupBy, compare_runs, evaluate_scene, satisfied_flags, write_bucket_csv
from .gradcheck import DEFAULT_SIZES, DEFAULT_TOLERANCE, run_gradcheck
from .grid import read_labels, require_shape, write_labels_pgm, write_rsgf
from .logic import spatial_loss
from .refine import RefineConfig, refine
from .relations import (
    TripletSet,
    calibrate,
    geometric_oracle,
    load_scripted_oracle,
    load_triplets,
    save_triplets,
)
from .scenes import SceneSpec, generate_scene, load_scene_bundle, save_scene_bundle, spec_from_dict
from .state import argmax_labels

T = TypeVar("T")
U = TypeVar("U")


def _attempt(fn: Callable[[T], U], item: T) -> tuple[U | None, RelfineError | None]:
    """`fn(item)` as (result, None), or (None, error) when it raises a RelfineError."""
    try:
        return fn(item), None
    except RelfineError as exc:
        return None, exc


def _parallel_map(fn: Callable[[T], U], items: Sequence[T], jobs: int) -> list[U]:
    """Map in input order. Every item runs even after one fails; then the
    first failure in input order is raised. So which items ran, what they
    wrote and what is raised do not depend on the job count or on timing."""
    attempt = functools.partial(_attempt, fn)
    # A forked pool starts all its workers at once, so start no more than
    # there are items.
    workers = min(jobs, len(items))
    if workers <= 1:
        outcomes = [attempt(item) for item in items]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(attempt, items))
    for _, error in outcomes:
        if error is not None:
            raise error
    return [result for result, _ in outcomes]


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------

_CONFIG_SECTIONS = frozenset({"output_dir", "scenes"})


def _scene_name(value: object, where: str, names: set[str]) -> str:
    """`value` as a filename-safe scene name not yet in `names`, which it joins."""
    name = require_safe_name(value, f"{where}: 'name'")
    if name in names:
        raise FormatError(f"{where}: duplicate scene name {name!r}")
    names.add(name)
    return name


class RunConfig:
    """Parsed run configuration; rejects unknown keys at every level."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        doc = load_json_object(path)
        require_keys(doc, frozenset(), _CONFIG_SECTIONS, str(path))

        output_dir = doc.get("output_dir", "out")
        if not isinstance(output_dir, str):
            raise FormatError(f"{path}: 'output_dir' must be a string, got {output_dir!r}")
        self.output_dir = self.path.parent / output_dir

        self.scene_specs: list[tuple[str, SceneSpec]] = []
        entries = doc.get("scenes", [])
        if not isinstance(entries, list):
            raise FormatError(f"{path}: 'scenes' must be a list")
        names: set[str] = set()
        for index, entry in enumerate(entries):
            where = f"{path}: scenes[{index}]"
            if not isinstance(entry, dict):
                raise FormatError(f"{where} must be an object")
            entry = dict(entry)
            name = _scene_name(entry.pop("name", f"scene_{index:03d}"), where, names)
            self.scene_specs.append((name, spec_from_dict(entry, where=f"{where} ({name})")))


# ---------------------------------------------------------------------------
# gen-scenes
# ---------------------------------------------------------------------------


def _generate_one(task: tuple[str, SceneSpec, str]) -> dict:
    name, spec, out_root = task
    save_scene_bundle(Path(out_root) / name, generate_scene(spec))
    return {"name": name, "seed": spec.seed, "path": name}


def cmd_gen_scenes(args: argparse.Namespace) -> int:
    config = RunConfig(args.config)
    if not config.scene_specs:
        raise FormatError(f"{config.path}: no scenes to generate ('scenes' is missing or empty)")
    out_root = Path(args.output) if args.output else config.output_dir
    with writing_to(out_root):
        out_root.mkdir(parents=True, exist_ok=True)
    tasks = [(name, spec, str(out_root)) for name, spec in config.scene_specs]
    entries = _parallel_map(_generate_one, tasks, args.jobs)
    write_json_object(out_root / "manifest.json", {"scenes": entries})
    print(f"generated {len(entries)} scene bundle(s) under {out_root}")
    return 0


# ---------------------------------------------------------------------------
# calibrate
# ---------------------------------------------------------------------------


def cmd_calibrate(args: argparse.Namespace) -> int:
    if args.labels is not None and not args.geometric:
        raise FormatError("--labels needs --geometric: a scripted oracle answers from its file alone")
    triplets = load_triplets(args.triplets)
    if args.oracle:
        oracle = load_scripted_oracle(args.oracle)
    else:
        if not args.labels:
            raise FormatError("--geometric needs --labels PATH")
        labels = read_labels(args.labels, len(triplets.categories))
        oracle = geometric_oracle(labels, triplets.categories)
    result = calibrate(triplets, oracle)

    for stage, count in result.audit.to_dict().items():
        print(f"{stage:>20}: {count}")
    if args.out_triplets:
        save_triplets(args.out_triplets, result.triplets)
    if args.out_audit:
        write_json_object(args.out_audit, result.audit.to_dict())
    return 0


# ---------------------------------------------------------------------------
# refine
# ---------------------------------------------------------------------------


def _refine_one(task: tuple[str, str, str, TripletSet | None, RefineConfig]) -> dict:
    name, bundle_dir, out_dir, triplets, cfg = task
    scene = load_scene_bundle(bundle_dir)
    if triplets is None:
        triplets = scene.gt_triplets

    final_state, trace = refine(scene.init_probs, triplets, cfg)
    labels = argmax_labels(final_state)

    out = Path(out_dir)
    with writing_to(out / "probs"):
        (out / "probs").mkdir(parents=True, exist_ok=True)
    write_labels_pgm(out / "labels.pgm", labels)
    for index, category in enumerate(final_state.categories):
        write_rsgf(out / "probs" / f"{category}.rsgf", final_state.probs[index])

    _, terms = spatial_loss(final_state, triplets)
    flags = satisfied_flags(labels, scene.categories, triplets)
    constraints = [
        {
            "subject": t.subject,
            "relation": t.relation.value,
            "object": t.object,
            "loss": loss,
            "initial_weight": initial_weight,
            "weight": weight,
            "satisfied": satisfied,
        }
        for t, loss, initial_weight, weight, satisfied in zip(
            triplets, terms.losses.tolist(), trace.initial_weights.tolist(), terms.weights.tolist(),
            flags.tolist(),
        )
    ]
    report = evaluate_scene(labels, scene, triplets, name=name, flags=flags)
    doc = {
        "scene": name,
        "baseline": cfg.alpha == 0.0,
        "config": {"refine": asdict(cfg)},
        "trace": trace.to_list(),
        "constraints": constraints,
        "metrics": report.to_dict(),
    }
    write_json_object(out / "report.json", doc)
    return report.to_dict()


def _scene_set(path: Path) -> tuple[list[tuple[str, Path]], bool]:
    """Resolve a path to named bundles, and whether it is a single bundle:
    one entry for a single bundle, or the manifest order for a generated
    scene set, which must not be empty."""
    if (path / "spec.json").exists():
        return [(path.name, path)], True
    manifest = path / "manifest.json"
    if not manifest.exists():
        raise FormatError(f"{path}: neither a scene bundle (spec.json) nor a scene set (manifest.json)")
    doc = load_json_object(manifest)
    entries = doc.get("scenes")
    if not isinstance(entries, list):
        raise FormatError(f"{manifest}: 'scenes' must be a list")
    pairs = []
    names: set[str] = set()
    for index, entry in enumerate(entries):
        if not isinstance(entry, dict) or "name" not in entry or "path" not in entry:
            raise FormatError(f"{manifest}: scenes[{index}] needs 'name' and 'path'")
        where = f"{manifest}: scenes[{index}]"
        name = _scene_name(entry["name"], where, names)
        pairs.append((name, path / require_safe_name(entry["path"], f"{where}: 'path'")))
    if not pairs:
        raise FormatError(f"{path}: scene set is empty")
    return pairs, False


def _same_path(a: Path, b: Path) -> bool:
    """Whether two paths, existing or not, resolve to the same place."""
    return os.path.realpath(a) == os.path.realpath(b)


def cmd_refine(args: argparse.Namespace) -> int:
    if args.triplets is None and not args.use_gt_triplets:
        raise FormatError("refine needs --triplets PATH or --use-gt-triplets")

    cfg = RefineConfig(alpha=args.alpha, steps=args.steps, learning_rate=args.learning_rate)

    scene_root, out_root = Path(args.scene), Path(args.out)
    pairs, single = _scene_set(scene_root)
    if not single and _same_path(out_root, scene_root):
        raise FormatError(f"--out {out_root} is the scene set {scene_root}: refine would overwrite its input")
    triplets = None if args.triplets is None else load_triplets(args.triplets)
    tasks = []
    for name, bundle in pairs:
        out_dir = out_root if single else out_root / name
        if _same_path(out_dir, bundle):
            raise FormatError(f"output {out_dir} is the input bundle {bundle}: refine would overwrite its input")
        tasks.append((name, str(bundle), str(out_dir), triplets, cfg))
    reports = _parallel_map(_refine_one, tasks, args.jobs)
    tag = "baseline" if cfg.alpha == 0.0 else f"alpha={cfg.alpha}"
    mean_miou = sum(r["miou"] for r in reports) / len(reports)
    print(f"refined {len(reports)} scene(s) [{tag}], mean mIoU {mean_miou:.4f}")
    return 0


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def cmd_eval(args: argparse.Namespace) -> int:
    if args.csv and not args.baseline:
        raise FormatError("--csv needs --baseline: the CSV holds baseline-vs-refined buckets")
    scene_pairs, single = _scene_set(Path(args.scenes))
    pred_root = Path(args.pred)

    # Each scene bundle is loaded once and scores every prediction directory.
    roots = [pred_root, *([Path(args.baseline)] if args.baseline else [])]
    runs: list[list[EvalReport]] = [[] for _ in roots]
    for name, bundle in scene_pairs:
        scene = load_scene_bundle(bundle)
        for root, reports in zip(roots, runs):
            labels_path = (root if single else root / name) / "labels.pgm"
            if not labels_path.exists():
                raise SceneSetMismatchError(f"no prediction for scene {name!r}: {labels_path} missing")
            pred = read_labels(labels_path, len(scene.categories))
            require_shape(labels_path, pred, scene.gt_labels.shape, f"scene {name!r}")
            reports.append(evaluate_scene(pred, scene, name=name))

    def aggregate(reports: list[EvalReport]) -> dict[str, float]:
        keys = ("miou", "macc", "constraint_satisfaction")
        return {key: sum(getattr(r, key) for r in reports) / len(reports) for key in keys}

    refined = runs[0]
    doc: dict = {"scenes": [r.to_dict() for r in refined], "aggregate": aggregate(refined)}

    if args.baseline:
        baseline = runs[1]
        deltas = compare_runs(baseline, refined, args.group_by)
        doc["baseline_aggregate"] = aggregate(baseline)
        doc["buckets"] = [{**asdict(d), "delta": d.delta} for d in deltas]
        if args.csv:
            write_bucket_csv(args.csv, deltas)
        for d in deltas:
            print(
                f"bucket {d.bucket:>8} ({d.scenes:>3} scenes): "
                f"baseline {d.baseline_miou:.4f} refined {d.refined_miou:.4f} delta {d.delta:+.4f}"
            )

    print(f"mean mIoU {doc['aggregate']['miou']:.4f} over {len(refined)} scene(s)")
    if args.out:
        write_json_object(args.out, doc)
    return 0


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------


def _parse_sizes(text: str) -> list[tuple[int, int]]:
    sizes = []
    for token in text.split(","):
        try:
            h, w = (int(side) for side in token.lower().split("x"))
        except ValueError:
            h = w = 0
        if h < 1 or w < 1:
            raise FormatError(f"bad size {token!r}, expected HxW with positive H and W")
        sizes.append((h, w))
    return sizes


def cmd_gradcheck(args: argparse.Namespace) -> int:
    sizes = list(DEFAULT_SIZES) if args.sizes is None else _parse_sizes(args.sizes)
    results = run_gradcheck(
        seed=args.seed,
        sizes=sizes,
        instances=args.instances,
        alpha=args.alpha,
        tolerance=args.tolerance,
        corrupt=args.corrupt_gradient,
    )
    print("instance    size  cats  constraints  max_rel_error  status")
    for r in results:
        status = "ok" if r.passed else "FAIL"
        print(
            f"{r.instance:>8}  {r.height}x{r.width:<4} {r.n_categories:>4}  {r.n_constraints:>11}"
            f"  {r.max_rel_error:>13.3e}  {status}"
        )
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} instances within {args.tolerance:g}")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _job_count(text: str) -> int:
    """A --jobs value: an integer of at least 1."""
    try:
        jobs = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {jobs}")
    return jobs


#: Usage and help wrap at this width whatever the terminal, so that argparse
#: errors read the same on every machine: the width an 80-column terminal gets.
_FORMATTER = functools.partial(argparse.HelpFormatter, width=78)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="relfine", description=__doc__, formatter_class=_FORMATTER)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-scenes", help="generate scene bundles from a run config", formatter_class=_FORMATTER)
    p.add_argument("config", help="run config JSON")
    p.add_argument("--output", help="override the config's output_dir")
    p.add_argument("--jobs", type=_job_count, default=1, help="parallel scene generation")
    p.set_defaults(handler="cmd_gen_scenes")

    p = sub.add_parser(
        "calibrate", help="augment, validate, and de-contradict a triplet set", formatter_class=_FORMATTER
    )
    p.add_argument("--triplets", required=True, help="triplet JSON file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--oracle", help="scripted oracle JSON file")
    group.add_argument("--geometric", action="store_true", help="answer from a label map instead")
    p.add_argument("--labels", help="PGM P5 label map for --geometric")
    p.add_argument("--out-triplets", help="write the calibrated set here")
    p.add_argument("--out-audit", help="write per-stage audit counts here")
    p.set_defaults(handler="cmd_calibrate")

    p = sub.add_parser("refine", help="optimize a scene's maps under spatial constraints", formatter_class=_FORMATTER)
    p.add_argument("--scene", required=True, help="scene bundle or scene-set directory")
    p.add_argument("--out", required=True, help="output directory")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--triplets", help="calibrated triplet JSON")
    group.add_argument("--use-gt-triplets", action="store_true", help="refine with the bundle's own triplets")
    defaults = RefineConfig()
    p.add_argument("--alpha", type=float, default=defaults.alpha, help="spatial weight (default %(default)s)")
    p.add_argument("--steps", type=int, default=defaults.steps, help="optimization steps (default %(default)s)")
    p.add_argument("--learning-rate", type=float, default=defaults.learning_rate,
                   help="Adam learning rate (default %(default)s)")
    p.add_argument("--jobs", type=_job_count, default=1, help="parallel refinement across scenes")
    p.set_defaults(handler="cmd_refine")

    p = sub.add_parser("eval", help="score predictions against scene ground truth", formatter_class=_FORMATTER)
    p.add_argument("--scenes", required=True, help="scene bundle or scene-set directory")
    p.add_argument("--pred", required=True, help="prediction directory (refine output)")
    p.add_argument("--baseline", help="second prediction directory for bucketed deltas")
    p.add_argument("--group-by", choices=get_args(GroupBy), default="categories")
    p.add_argument("--out", help="write the report JSON here")
    p.add_argument("--csv", help="write the bucket CSV here (needs --baseline)")
    p.set_defaults(handler="cmd_eval")

    p = sub.add_parser(
        "gradcheck", help="finite-difference check of the analytic gradients", formatter_class=_FORMATTER
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sizes", help="comma-separated HxW list, e.g. 4x4,8x8")
    p.add_argument("--instances", type=int, default=20)
    p.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
    p.add_argument("--alpha", type=float, default=0.1)
    p.add_argument("--corrupt-gradient", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(handler="cmd_gradcheck")

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser `main` reuses for the life of the process, built on the
    first call rather than at import. `build_parser` stays fresh per call, so
    a caller that edits its own parser cannot reach this one."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _shared_parser().parse_args(argv)
    # The handler is looked up by name on every call, so a `cmd_*` replaced
    # after the parser was built (a test double, a tracing wrapper) runs.
    handler = globals()[args.handler]
    try:
        return handler(args)
    except RelfineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
