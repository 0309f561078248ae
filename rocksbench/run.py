#!/usr/bin/env python3
"""Run one rocksbench workload and print its result line.

    python3 rocksbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the
harness (and the libraries under src/ it links) into .bench_build/. The
binary's notes are passed through; the last line of stdout is one JSON
object with exactly the keys correct, attempted, failed and metrics. With
--trace 0 the metrics are BENCHMARK.json's end_to_end list, with --trace 1
its per_layer list; any metric missing or undeclared fails the run.
"""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
BINARY = BUILD_DIR / "cmake" / "rocksbench"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"rocksbench: {message}", file=sys.stderr)
    sys.exit(1)


def load_declared():
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"{spec_path} is missing")
    spec = json.loads(spec_path.read_text())
    return spec


def build():
    """Configures once, then brings the binary up to date (a no-op when built)."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("the system under test (src/) is missing from this checkout")
    cmake_dir = BUILD_DIR / "cmake"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (cmake_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(cmake_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(cmake_dir), "-j", jobs, "--target", "rocksbench"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")


def run_binary(args):
    """Runs the harness, passes its notes through, returns its parsed result line."""
    command = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = BUILD_DIR / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        command += ["--trace-out", str(traces / f"{args.workload}-seed{args.seed}.csv")]
    try:
        done = subprocess.run(command, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(done.stderr)
    lines = done.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if done.returncode != 0:
        fail(f"{args.workload} exited with {done.returncode} (a correctness check failed "
             "or the run threw)")
    try:
        return json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        fail(f"{args.workload} printed no result line")


def check_metrics(result, spec, traced):
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}
    metrics = result.get("metrics", {})
    missing = sorted(set(declared) - set(metrics))
    undeclared = sorted(set(metrics) - set(declared))
    if missing:
        fail(f"declared metrics missing from the output: {', '.join(missing)}")
    if undeclared:
        fail(f"output has undeclared metrics: {', '.join(undeclared)}")
    for name, unit in declared.items():
        entry = metrics[name]
        value = entry.get("value")
        if entry.get("unit") != unit:
            fail(f"metric {name} has unit {entry.get('unit')!r}, declared {unit!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"metric {name} has no finite value")
    return {name: {"value": metrics[name]["value"], "unit": unit}
            for name, unit in declared.items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    spec = load_declared()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    build()
    result = run_binary(args)
    metrics = check_metrics(result, spec, bool(args.trace))
    if args.trace:
        print(f"{args.workload}: tracing overhead on ops_per_s (untraced - traced) = "
              f"{metrics['trace.overhead_pct']['value']:.2f}%")
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
