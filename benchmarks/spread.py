"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 benchmarks/spread.py --workload refine-256 --seeds 1-10

Runs benchmarks/run.py once per seed, one after another, for BENCHMARK.json's
run_seconds, and prints for each
end-to-end metric its median, its interquartile distance as a share of the
median, and a third of the metric's bound from BENCHMARK.json (the spread a
steady benchmark stays below). Per-run results stay in .bench_work/results/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from stats import relative_spread

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="inclusive range, e.g. 1-10")
    args = parser.parse_args()

    values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, str(ROOT / "benchmarks" / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        if not line["correct"]:
            print(f"seed {seed}: {line['failed']} of {line['attempted']} operations failed", file=sys.stderr)
            return 1
        for name, metric in line["metrics"].items():
            values[name].append(metric["value"])
        print(f"seed {seed}: " + "  ".join(f"{n}={v[-1]:.4f}" for n, v in values.items()), flush=True)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"{'metric':<14} {'median':>12} {'spread':>8} {'bound/3':>8}")
    for name, vals in values.items():
        print(f"{name:<14} {statistics.median(vals):>12.4f} {relative_spread(vals):>8.4f} {bounds[name] / 3:>8.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
