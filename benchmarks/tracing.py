"""In-memory span tracing around relfine's public functions, for the traced run.

The tracer wraps functions from the outside and changes nothing in relfine.
Three details of the package decide how a wrapper is installed:

- relfine/__init__.py rebinds the name `relfine.refine` to the function, so
  a module is always looked up in sys.modules (sys.modules["relfine.refine"]);
- modules import names with `from .logic import ...`, so every relfine
  namespace that holds the original object gets the wrapper, not only the
  defining module;
- `--jobs 2` forks pool workers, which inherit the wrappers and the stack of
  open spans but keep new spans in their own memory. Each worker appends its
  spans to a sidecar file whenever its outermost span closes; the parent
  reads the files after the pass. Worker spans keep their parent links, so
  the per-layer split covers the real `--jobs 2` execution.

Spans and counts go to sidecar files under the benchmark's work directory,
never into relfine's outputs.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from stats import Span, self_times

ROOT_SPAN = "bench.pass"


class Tracer:
    """Open-span stack, finished spans and counters of one process."""

    def __init__(self, sidecar_dir: Path):
        self.sidecar_dir = sidecar_dir
        self.pid = os.getpid()
        self.stack: list[str] = []
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._seq = 0
        self._fork_depth: int | None = None
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        self.pid = os.getpid()
        self.spans = []
        self.counts = Counter()
        self._fork_depth = len(self.stack)

    def open(self) -> tuple[str, str | None, float]:
        self._seq += 1
        span_id = f"{self.pid}:{self._seq}"
        parent = self.stack[-1] if self.stack else None
        self.stack.append(span_id)
        return span_id, parent, time.perf_counter()

    def close(self, token: tuple[str, str | None, float], name: str) -> None:
        end = time.perf_counter()
        span_id, parent, start = token
        self.stack.pop()
        self.spans.append(Span(span_id, parent, name, start, end))
        if self._fork_depth is not None and len(self.stack) == self._fork_depth:
            self._flush_worker()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    def _flush_worker(self) -> None:
        path = self.sidecar_dir / f"worker-{self.pid}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(json.dumps([s.id, s.parent, s.name, s.start, s.end]) + "\n")
            handle.write(json.dumps({"counts": dict(self.counts)}) + "\n")
        self.spans = []
        self.counts = Counter()

    def collect(self) -> tuple[list[Span], Counter]:
        """This process's spans and counts plus every worker's, then reset."""
        spans, counts = self.spans, self.counts
        for path in sorted(self.sidecar_dir.glob("worker-*.jsonl")):
            for line in path.read_text(encoding="utf-8").splitlines():
                record = json.loads(line)
                if isinstance(record, dict):
                    counts.update(record["counts"])
                else:
                    spans.append(Span(*record))
            path.unlink()
        self.spans, self.counts = [], Counter()
        return spans, counts


# ---------------------------------------------------------------------------
# What is wrapped, and which metric each span and count feeds
# ---------------------------------------------------------------------------


class CountingOracle:
    """Forwards oracle questions and counts them at the relations boundary."""

    def __init__(self, oracle, tracer: Tracer):
        self._oracle = oracle
        self._tracer = tracer

    def holds(self, *args):
        self._tracer.count("relations.oracle_queries")
        return self._oracle.holds(*args)

    def choose(self, *args):
        self._tracer.count("relations.oracle_queries")
        return self._oracle.choose(*args)


def _count_oracle(tracer: Tracer, a: dict) -> None:
    a["oracle"] = CountingOracle(a["oracle"], tracer)


def _count_constraints(tracer: Tracer, a: dict, result) -> None:
    terms = len(a["compiled"])
    state = a["state"]
    tracer.count("logic.constraint_evals", terms)
    tracer.count("logic.pixel_evals", terms * state.height * state.width)


def _count_pairs(tracer: Tracer, a: dict, result) -> None:
    n = len(a["triplets"])
    tracer.count("relations.pairs_scanned", n * (n - 1) // 2)


def _file_size(metric: str):
    def hook(tracer: Tracer, a: dict, result) -> None:
        tracer.count(metric, os.path.getsize(a["path"]))

    return hook


@dataclass(frozen=True)
class Target:
    module: str
    qualname: str
    metric: str | None  # metric the span's self time feeds; None counts only
    before: Callable | None = None
    after: Callable | None = None
    count: str | None = None  # counter bumped once per call


def _len_result(metric: str):
    return lambda tracer, a, result: tracer.count(metric, len(result))


TARGETS = (
    Target("relfine.logic", "compile_constraints", "logic.compile_s"),
    Target("relfine.logic", "compiled_spatial_loss", "logic.loss_s", after=_count_constraints),
    Target("relfine.logic", "spatial_loss", "logic.loss_s"),
    Target("relfine.logic", "logit_gradient_from_terms", "logic.grad_s"),
    Target("relfine.refine", "refine", "refine.self_s"),
    Target("relfine.refine", "fidelity_loss", "refine.fidelity_s"),
    Target("relfine.refine", "adam_step", "refine.adam_s", count="refine.steps"),
    Target("relfine.state", "SegmentationState.with_logits", "state.softmax_s"),
    Target("relfine.state", "argmax_labels", "state.argmax_s"),
    Target("relfine.relations", "load_triplets", "relations.load_s"),
    Target("relfine.relations", "load_scripted_oracle", "relations.load_s"),
    Target("relfine.relations", "augment_bidirectional", "relations.augment_s",
           after=_len_result("relations.augmented")),
    Target("relfine.relations", "validate_polar", "relations.validate_s", before=_count_oracle),
    Target("relfine.relations", "detect_contradictions", "relations.detect_s", after=_count_pairs),
    Target("relfine.relations", "resolve_contradictions", "relations.resolve_s",
           before=_count_oracle, after=_len_result("relations.kept")),
    Target("relfine.relations", "save_triplets", "relations.save_s"),
    Target("relfine.scenes", "generate_scene", "scenes.generate_s"),
    Target("relfine.scenes", "save_scene_bundle", "scenes.save_bundle_s"),
    Target("relfine.scenes", "load_scene_bundle", "scenes.load_bundle_s"),
    Target("relfine.grid", "read_rsgf", "grid.read_s", after=_file_size("grid.bytes_read")),
    Target("relfine.grid", "read_labels", "grid.read_s", after=_file_size("grid.bytes_read")),
    Target("relfine.grid", "write_rsgf", "grid.write_s", after=_file_size("grid.bytes_written")),
    Target("relfine.grid", "write_labels_pgm", "grid.write_s",
           after=_file_size("grid.bytes_written")),
    Target("relfine.evaluate", "evaluate_scene", "evaluate.evaluate_scene_s"),
    Target("relfine.evaluate", "compare_runs", "evaluate.compare_runs_s"),
    Target("relfine.evaluate", "triplet_satisfied", None, count="evaluate.triplet_checks"),
    Target("relfine.cli", "main", "cli.self_s"),
    Target("relfine.cli", "cmd_gen_scenes", "cli.self_s"),
    Target("relfine.cli", "cmd_calibrate", "cli.self_s"),
    Target("relfine.cli", "cmd_refine", "cli.self_s"),
    Target("relfine.cli", "cmd_eval", "cli.self_s"),
    # Per-task pool entry points: their spans are the workers' busy time.
    Target("relfine.cli", "_generate_one", "cli.self_s"),
    Target("relfine.cli", "_refine_one", "cli.self_s"),
)

SPAN_METRIC = {f"{t.module}.{t.qualname}": t.metric for t in TARGETS if t.metric}

TIME_METRICS = tuple(dict.fromkeys(t.metric for t in TARGETS if t.metric))
COUNT_METRICS = (
    "logic.constraint_evals",
    "logic.pixel_evals",
    "refine.steps",
    "relations.oracle_queries",
    "relations.pairs_scanned",
    "grid.bytes_read",
    "grid.bytes_written",
    "evaluate.triplet_checks",
)


def _wrap(tracer: Tracer, original: Callable, target: Target) -> Callable:
    name = f"{target.module}.{target.qualname}"
    signature = inspect.signature(original) if target.before or target.after else None

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        bound = None
        if signature is not None:
            bound = signature.bind(*args, **kwargs)
            if target.before:
                target.before(tracer, bound.arguments)
            args, kwargs = bound.args, bound.kwargs
        if target.count:
            tracer.count(target.count)
        if target.metric is None:
            return original(*args, **kwargs)
        token = tracer.open()
        try:
            result = original(*args, **kwargs)
        finally:
            tracer.close(token, name)
        if target.after:
            target.after(tracer, bound.arguments, result)
        return result

    return wrapper


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every target wherever relfine holds it; returns what to restore."""
    patches = []
    namespaces = [m for n, m in sys.modules.items() if n == "relfine" or n.startswith("relfine.")]
    for target in TARGETS:
        owner = sys.modules[target.module]
        *path, attr = target.qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        wrapper = _wrap(tracer, original, target)
        holders = [owner] if path else [m for m in namespaces if getattr(m, attr, None) is original]
        for holder in holders:
            patches.append((holder, attr, original))
            setattr(holder, attr, wrapper)
    return patches


def uninstall(patches: list[tuple[object, str, object]]) -> None:
    for holder, attr, original in reversed(patches):
        setattr(holder, attr, original)


# ---------------------------------------------------------------------------
# Per-layer metrics of one traced pass
# ---------------------------------------------------------------------------


def layer_metrics(spans: list[Span], counts: Counter, jobs: int) -> dict[str, float]:
    """Self time per layer metric, counters, and the wall-time accounting.

    Identity: sum of layer self times - overlap + remainder == wall, where
    wall is the root span, remainder its self time (harness code outside
    every layer) and overlap the time parallel workers count twice.
    """
    roots = [s for s in spans if s.name == ROOT_SPAN]
    if len(roots) != 1:
        raise ValueError(f"expected one {ROOT_SPAN} span, found {len(roots)}")
    root = roots[0]
    selfs, overlap = self_times(spans)
    out = {metric: 0.0 for metric in TIME_METRICS}
    for span in spans:
        if span is not root:
            out[SPAN_METRIC[span.name]] += selfs[span.id]
    for metric in COUNT_METRICS:
        out[metric] = counts.get(metric, 0)
    augmented = counts.get("relations.augmented", 0)
    out["relations.kept_ratio"] = counts.get("relations.kept", 0) / augmented if augmented else 0.0

    busy: dict[str, float] = {}
    for span in spans:
        if span.name == "relfine.cli._refine_one":
            busy[span.parent] = busy.get(span.parent, 0.0) + span.duration
    out["cli.pool_overhead_s"] = sum(
        s.duration - busy.get(s.id, 0.0) / jobs for s in spans if s.name == "relfine.cli.cmd_refine"
    )
    out["trace.wall_s"] = root.duration
    out["trace.overlap_s"] = overlap
    out["trace.remainder_s"] = selfs[root.id]
    layers = sum(out[m] for m in TIME_METRICS)
    if abs(layers - overlap + out["trace.remainder_s"] - root.duration) > 1e-6 * max(1.0, root.duration):
        raise AssertionError("layer self times do not add up to the traced wall time")
    return out
