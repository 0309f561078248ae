#!/usr/bin/env python3
"""A/B driver: the working tree against a base commit, on rocksbench workloads.

    python3 bench/ab.py --workload job_churn [--workload node_integration ...]
                        [--base HEAD~1] [--pairs 10] [--scratch DIR] [--out FILE]
    python3 bench/ab.py --check BENCH_job_churn.json

Run from anywhere inside the repository. --workload may be given more than
once; the workloads run one after another, each with its own pairs, on one
build of each tree.

- The base commit (A) is exported with `git archive` into a fresh
  directory, <scratch>/<sha>/, and rocksbench is built there. The export is
  reused by later invocations against the same commit. A .bench_build/ is
  never copied between trees: its CMake cache keeps building the tree it
  was configured from, so a copy silently measures that tree twice.
- The change (B) is the working tree at the repository root, uncommitted
  edits included; it builds into its own .bench_build/.
- Both trees run `rocksbench/run.py --trace 0` with seed 1 and the run
  length BENCHMARK.json sets ("run_seconds"), in A B B A order, for
  --pairs pairs.
- For each end-to-end metric it prints each side's median and quartiles,
  the median and quartiles of the per-pair B/A ratios, how many pairs B
  won, and a distribution-free interval for the median B/A ratio: the sign
  test's order statistics, the narrowest with at least 90% coverage. Fewer
  than 5 pairs cannot reach 90%, and it says so.
- It then runs both harness binaries once with `--small --trace 1` and
  compares the per-layer metrics whose units (count, ratio, B) are exact on
  the single-threaded workloads: the layer that moved needs no statistics.
- It ends each workload with one verdict line: every end-to-end metric
  whose median B/A ratio is worse than its BENCHMARK.json bound, and
  whether the exact per-layer counts moved.
- It writes every run and the summary to BENCH_<workload>.json at the
  repository root, one file per workload (--out names the file when one
  workload runs). The change is named by
  its HEAD commit; if tracked files have uncommitted edits, the file also
  records the SHA-256 of `git diff HEAD`, so a run can be matched to the
  exact code it measured, and the SHA-256 of that diff restricted to src/.

--check FILE is read-only: it runs nothing and builds nothing. It recomputes
the src/ diff against the commit FILE names and says whether FILE measured
the src/ tree checked out now (exit 0) or an older one (exit 1). A file that
predates the src/ hash can only be judged when it measured a clean commit.

With the defaults (10 pairs of 20-s runs) each workload takes 8-10 minutes
on 4 vCPUs, plus about 2.5 minutes to build the base the first time.
"""

import argparse
import hashlib
import io
import json
import math
import os
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "rocksbench"))
from test_determinism import EXACT_UNITS, SINGLE_THREADED  # noqa: E402

SEED = 1


def fail(message):
    print(f"ab: {message}", file=sys.stderr)
    sys.exit(1)


def git(*args):
    done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True)
    if done.returncode != 0:
        fail(f"git {' '.join(args)} failed: {done.stderr.decode().strip()}")
    return done.stdout


def src_diff_sha256(commit):
    """SHA-256 of the src/ diff between `commit` and the working tree, or
    None when src/ is unchanged."""
    diff = git("diff", commit, "--binary", "--", "src")
    return hashlib.sha256(diff).hexdigest() if diff else None


def check(path):
    """Whether a BENCH_<workload>.json measured the src/ tree checked out now."""
    try:
        change = json.loads(Path(path).read_text())["change"]
    except (OSError, json.JSONDecodeError, KeyError) as error:
        fail(f"{path}: not a result file ({error})")
    commit = change["commit"]
    if "src_diff_sha256" in change:
        recorded = change["src_diff_sha256"]
    elif "uncommitted_diff_sha256" not in change:
        recorded = None  # measured a clean commit
    else:
        print(f"{path}: cannot tell: it measured uncommitted edits on {commit[:12]} "
              "and predates the src/ hash")
        return 1
    now = src_diff_sha256(commit)
    if now == recorded:
        print(f"{path}: fresh: it measured the src/ tree checked out now "
              f"({commit[:12]} plus {'no src/ edits' if now is None else 'src/ diff ' + now[:12]})")
        return 0
    print(f"{path}: STALE: src/ differs from the tree it measured ({commit[:12]} plus "
          f"{'no src/ edits' if recorded is None else 'src/ diff ' + recorded[:12]})")
    return 1


def export_base(sha, scratch):
    """A fresh tree of `sha` under `scratch`, made once and then reused."""
    tree = scratch / sha
    marker = tree / ".ab_exported"
    if not marker.is_file():
        if tree.exists():
            fail(f"{tree} exists but is not a finished export; remove it first")
        tree.mkdir(parents=True)
        with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", sha))) as tar:
            tar.extractall(tree, filter="data")
        marker.write_text(sha + "\n")
    return tree


def build(tree):
    code = "import sys; sys.path.insert(0, 'rocksbench'); import run; run.build()"
    if subprocess.run([sys.executable, "-c", code], cwd=tree,
                      stdout=subprocess.DEVNULL).returncode != 0:
        fail(f"building rocksbench in {tree} failed")


def last_json(stdout, what):
    try:
        return json.loads(stdout.rstrip("\n").split("\n")[-1])
    except (json.JSONDecodeError, IndexError):
        fail(f"{what} printed no result line")


def run_once(tree, workload, seconds):
    command = [sys.executable, "rocksbench/run.py", "--workload", workload,
               "--seed", str(SEED), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        fail(f"run in {tree} failed:\n{done.stdout}{done.stderr}")
    return last_json(done.stdout, f"run in {tree}")


def layer_counts(tree, workload):
    binary = tree / ".bench_build" / "cmake" / "rocksbench"
    command = [str(binary), "--workload", workload, "--seed", str(SEED),
               "--seconds", "1", "--trace", "1", "--small"]
    done = subprocess.run(command, capture_output=True, text=True)
    if done.returncode != 0:
        fail(f"--small run in {tree} failed:\n{done.stdout}{done.stderr}")
    return last_json(done.stdout, f"--small run in {tree}")["metrics"]


def quartiles(values):
    """(q1, median, q3); with one value all three are that value."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


COVERAGE = 0.90


def sign_interval(values):
    """Distribution-free interval for the median of `values`.

    The sign test's order statistics: with the values sorted, [v(k), v(n-k+1)]
    covers the median with probability 1 - 2 P(Binomial(n, 1/2) <= k - 1),
    whatever the distribution. Picks the largest k whose coverage is at least
    COVERAGE (the narrowest such interval); None when even k = 1 falls short,
    which takes fewer than 5 values at 90%.
    """
    n = len(values)
    ordered = sorted(values)
    best = None
    for k in range(1, n // 2 + 1):
        below = sum(math.comb(n, j) for j in range(k)) / 2 ** n  # P(B <= k - 1)
        coverage = 1 - 2 * below
        if coverage < COVERAGE:
            break
        best = {"low": ordered[k - 1], "high": ordered[n - k], "coverage": coverage, "k": k}
    return best


def summarize(spec, runs):
    summary = {}
    for metric in spec["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        a = [r["metrics"][name]["value"] for r in runs if r["side"] == "parent"]
        b = [r["metrics"][name]["value"] for r in runs if r["side"] == "change"]
        ratios = [y / x if x else float("inf") for x, y in zip(a, b)]
        wins = sum(1 for x, y in zip(a, b) if (y < x if lower else y > x))
        entry = {"unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
                 "change_better_pairs": wins, "pairs": len(ratios)}
        for side, values in (("parent", a), ("change", b), ("ratio", ratios)):
            q1, median, q3 = quartiles(values)
            entry[side] = {"median": median, "q1": q1, "q3": q3}
        entry["ratio_interval"] = sign_interval(ratios)
        summary[name] = entry
    return summary


def print_summary(summary):
    print(f"{'metric':<12} {'parent median [q1, q3]':>30} {'change median [q1, q3]':>30} "
          f"{'B/A median [q1, q3]':>24} {'B won':>6}  B/A median interval")
    for name, e in summary.items():
        side = {k: f"{e[k]['median']:.4g} [{e[k]['q1']:.4g}, {e[k]['q3']:.4g}]"
                for k in ("parent", "change")}
        r, ci = e["ratio"], e["ratio_interval"]
        interval = (f"[{ci['low']:.3f}, {ci['high']:.3f}] at {ci['coverage']:.1%}" if ci
                    else f"too few pairs for {COVERAGE:.0%} (need 5)")
        print(f"{name:<12} {side['parent']:>30} {side['change']:>30} "
              f"{r['median']:>8.3f} [{r['q1']:.3f}, {r['q3']:.3f}] "
              f"{e['change_better_pairs']:>3}/{e['pairs']}  {interval}")


def compare_layers(spec, workload, parent, change):
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    exact = [n for n in units if units[n] in EXACT_UNITS]
    moved = [n for n in exact if parent[n]["value"] != change[n]["value"]]
    if workload not in SINGLE_THREADED:
        print(f"per-layer counts: {workload} is multi-threaded, so they are not exact; "
              "not compared")
        return None
    for name in moved:
        print(f"per-layer MOVED {name}: {parent[name]['value']} -> {change[name]['value']}")
    print(f"per-layer counts (units count/ratio/B, --small --trace 1): "
          f"{len(exact) - len(moved)} of {len(exact)} identical")
    return not moved


def worse_than_bound(summary):
    """End-to-end metrics whose median B/A ratio is worse than their bound."""
    worse = []
    for name, e in summary.items():
        ratio = e["ratio"]["median"]
        lower = e["better"] == "lower"
        if (ratio > 1 + e["bound"]) if lower else (ratio < 1 - e["bound"]):
            worse.append(f"{name} {ratio:.3f}")
    return worse


def run_workload(spec, workload, trees, pairs, sha, change, out):
    seconds = spec["run_seconds"]
    runs = []
    for pair in range(pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(trees[side], workload, seconds)
            runs.append({"pair": pair, "side": side, **result})
            ops = result["metrics"]["ops_per_s"]["value"]
            print(f"{workload} pair {pair + 1}/{pairs} {side:<6} ops_per_s {ops:.4g}", flush=True)

    summary = summarize(spec, runs)
    print_summary(summary)
    layers = {side: layer_counts(tree, workload) for side, tree in trees.items()}
    identical = compare_layers(spec, workload, layers["parent"], layers["change"])

    out.write_text(json.dumps({
        "workload": workload,
        "seed": SEED,
        "seconds": seconds,
        "trace": 0,
        "pairs": pairs,
        "order": "A B B A (A = parent)",
        "parent": sha,
        "change": change,
        "cpus": os.cpu_count(),
        "summary": summary,
        "layers_identical": identical,
        "layers": layers,
        "runs": runs,
    }, indent=1) + "\n")
    print(f"wrote {out}")
    worse = worse_than_bound(summary)
    layer_text = {True: "per-layer counts identical", False: "per-layer counts MOVED",
                  None: "per-layer counts not compared"}[identical]
    print(f"verdict {workload}: "
          + (f"WORSE beyond bound: {', '.join(worse)}" if worse
             else "no end-to-end metric worse beyond its bound")
          + f"; {layer_text}", flush=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append",
                        help="a workload to run; give it once per workload")
    parser.add_argument("--check", metavar="FILE",
                        help="only say whether FILE measured the current src/ tree")
    parser.add_argument("--base", default="HEAD~1", help="commit to compare against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--scratch", type=Path, default=ROOT / ".bench_ab",
                        help="where base exports live (default: .bench_ab/ in the repo)")
    parser.add_argument("--out", type=Path,
                        help="result file for a single workload (default: BENCH_<workload>.json)")
    args = parser.parse_args()
    if args.check:
        if args.workload:
            fail("--check runs nothing; give it without --workload")
        return check(args.check)
    if not args.workload:
        fail("give at least one --workload, or --check FILE")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = {w["name"] for w in spec["workloads"]}
    for workload in args.workload:
        if workload not in known:
            fail(f"unknown workload {workload!r}")
    if len(set(args.workload)) != len(args.workload):
        fail("each --workload may be given once")
    if args.out and len(args.workload) > 1:
        fail("--out names one file; with several workloads each writes BENCH_<workload>.json")
    if args.pairs < 1:
        fail("--pairs must be at least 1")
    sha = git("rev-parse", "--verify", f"{args.base}^{{commit}}").decode().strip()
    change = {"commit": git("rev-parse", "HEAD").decode().strip()}
    diff = git("diff", "HEAD", "--binary")
    if diff:
        change["uncommitted_diff_sha256"] = hashlib.sha256(diff).hexdigest()
    change["src_diff_sha256"] = src_diff_sha256(change["commit"])

    trees = {"parent": export_base(sha, args.scratch.resolve()), "change": ROOT}
    for tree in trees.values():
        build(tree)

    for workload in args.workload:
        out = args.out or ROOT / f"BENCH_{workload}.json"
        run_workload(spec, workload, trees, args.pairs, sha, change, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
