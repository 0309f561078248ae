#!/usr/bin/env python3
"""Seeded-determinism self-test for the benchmark.

    python3 rocksbench/test_determinism.py

Runs every workload at reduced size (--small: one round of fixed work)
traced, and checks that
  - the same seed gives the same inputs (input digest) on every workload;
  - a second seed gives different inputs on every workload;
  - on the single-threaded workloads, two runs with one seed report
    identical per-layer counts (units count, ratio and B; times differ).
Exits 1 on the first mismatch.
"""

import json
import subprocess
import sys

import run

SINGLE_THREADED = ("node_integration", "job_churn", "cluster_reinstall")
EXACT_UNITS = ("count", "ratio", "B")


def small_run(workload, seed):
    command = [str(run.BINARY), "--workload", workload, "--seed", str(seed),
               "--seconds", "1", "--trace", "1", "--small"]
    done = subprocess.run(command, capture_output=True, text=True, timeout=run.RUN_TIMEOUT_S)
    if done.returncode != 0:
        sys.exit(f"FAIL {workload} seed {seed}: exit {done.returncode}\n{done.stdout}{done.stderr}")
    return json.loads(done.stdout.rstrip("\n").split("\n")[-1])


def main():
    run.build()
    spec = run.load_declared()
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    failures = []
    for workload in [w["name"] for w in spec["workloads"]]:
        first, again, other = small_run(workload, 1), small_run(workload, 1), small_run(workload, 2)
        if first["input_digest"] != again["input_digest"]:
            failures.append(f"{workload}: seed 1 gave two different inputs")
        if first["input_digest"] == other["input_digest"]:
            failures.append(f"{workload}: seeds 1 and 2 gave the same inputs")
        if workload in SINGLE_THREADED:
            for name, unit in units.items():
                if unit not in EXACT_UNITS:
                    continue
                a, b = first["metrics"][name]["value"], again["metrics"][name]["value"]
                if a != b:
                    failures.append(f"{workload}: {name} = {a} then {b} with one seed")
        print(f"{workload}: checked", flush=True)
    for failure in failures:
        print(f"FAIL {failure}")
    if failures:
        return 1
    print("determinism self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
