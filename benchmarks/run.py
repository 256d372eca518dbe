"""relfine benchmark: one seeded workload per call, metrics checked and printed.

    python3 benchmarks/run.py --workload e2e-64 --seed 1 --seconds 45 --trace 0

Run from the repository root. The workload runs in a fresh Python process
with PYTHONPATH=src and single-threaded BLAS; `--setup-only` copies of it
run before and after it so that set-up time is a median of several fresh
set-ups.
Every metric is printed with its unit; the last stdout line is one JSON
object with `correct`, `attempted`, `failed` and the metrics BENCHMARK.json
lists (end-to-end with --trace 0, per-layer with --trace 1). Work files go
to .bench_work/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("e2e-64", "refine-256", "calibrate-corpus")
SETUP_SAMPLES = 5  # fresh set-ups per run, odd; set-up time is their median
# The whole run must end within --seconds of timed passes plus this margin,
# which covers the fresh set-ups and the reference checks.
DEADLINE_MARGIN_S = 140.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Units of the metrics that only the full report carries.
REPORT_UNITS = {
    "wall_s": "s",
    "items_per_s": "1/s",
    "gen_scenes_s": "s",
    "calibrate_s": "s",
    "refine_baseline_s": "s",
    "refine_s": "s",
    "eval_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "latency_samples": "count",
    "latency_beyond_p90": "count",
    "latency_tail_pct": "%",
    "latency_tail_ms": "ms",
    "latency_beyond_tail": "count",
    "miou_gain_pts": "pts",
    "constraint_satisfaction": "ratio",
    "error_rate": "ratio",
}


def fail(message: str) -> int:
    print(f"benchmark: {message}", file=sys.stderr)
    return 1


def run_child(argv: list[str], env: dict, deadline: float) -> dict:
    """Run workload.py and return the JSON document on its last stdout line."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "workload.py"), *argv],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the CLI flow's pool workers too
        proc.communicate()
        raise RuntimeError("workload ran past the deadline") from None
    if proc.returncode != 0:
        raise RuntimeError(f"workload exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise RuntimeError("workload printed no result")
    return json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        return fail("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "relfine" / "__init__.py").is_file():
        return fail(f"no relfine sources under {ROOT / 'src'}; run from a full checkout")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.update({var: "1" for var in THREAD_VARS})
    work = ROOT / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    child_args = [
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--work", str(work),
    ]
    deadline = started + args.seconds + DEADLINE_MARGIN_S
    # Half of the extra set-ups run before the measured passes and half after,
    # so that set-up time, like wall time, samples the machine over the run.
    setup_only = [*child_args, "--setup-only"]
    try:
        setups = [run_child(setup_only, env, deadline) for _ in range(SETUP_SAMPLES // 2)]
        result = run_child(child_args, env, deadline)
        setups += [run_child(setup_only, env, deadline) for _ in range(SETUP_SAMPLES // 2)]
    except (RuntimeError, json.JSONDecodeError) as exc:
        return fail(str(exc))

    metrics = result["metrics"]
    setup_samples = [s["setup_s"] for s in setups] + [metrics["setup_s"]]
    metrics["setup_s"] = statistics.median(setup_samples)
    failed = result["failed"] + sum(not s["golden_pin"] for s in setups)
    attempted = result["attempted"] + len(setups)
    units = {**REPORT_UNITS, **{m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}}

    env_doc = result["environment"]
    print(f"# {args.workload}  seed {args.seed}  {args.seconds}s  trace {args.trace}")
    print("# environment: " + "  ".join(f"{k}={v}" for k, v in env_doc.items()))
    print(
        f"# {result['passes']} passes ({result['traced_passes']} traced), {result['ops_per_pass']} "
        f"operations per pass; setup_s is the median of {SETUP_SAMPLES} fresh set-ups"
    )
    for name, value in metrics.items():
        print(f"{name:<28} {value:>16.6f} {units.get(name, '')}")
    print(f"{'failed / attempted':<28} {failed:>9d} / {attempted}")

    out_dir = ROOT / ".bench_work" / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    record = {**result, "metrics": metrics, "setup_samples": setup_samples, "attempted": attempted, "failed": failed}
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8"
    )
    missing = [m["name"] for m in listed if m["name"] not in metrics]
    if missing:
        return fail(f"workload did not report {missing}")
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
