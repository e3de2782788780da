#!/usr/bin/env python3
"""A/B the repository benchmark: alternated parent/change pairs of perfbench.

    python3 tools/perfbench_ab.py --base REV --workloads paper8,cohort \\
        --pairs 10 --seed 1

The parent is REV, exported with `git archive` into a temporary directory;
the change is this checkout as it stands, uncommitted edits included. Each
tree builds perfbench into its own CARGO_TARGET_DIR inside the temporary
directory, so neither tree's `.bench_build/` is touched. Every pair runs
`perfbench/run.py --trace 0` once per tree for BENCHMARK.json's
`run_seconds`, alternating which tree runs first. For each workload and
each end-to-end metric of BENCHMARK.json the tool prints the per-pair
change/parent ratios, both medians with their quartiles (computed as
perfbench/steadiness.py does), how many pairs the change won (ties
count for neither side), and a no-regression verdict against the metric's
`bound` (see `verdict`). It exits nonzero when a run fails or reports
wrong results. A pair takes twice `run_seconds` per workload and the two
bench builds take minutes, so this is a manual tool, not a CI step.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def fail(message):
    print(f"perfbench_ab: {message}", file=sys.stderr)
    sys.exit(1)


def export_tree(rev, dest):
    """Extracts `rev` of this repository into `dest` with git archive."""
    dest.mkdir()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             stdout=subprocess.PIPE)
    if archive.returncode != 0:
        fail(f"git archive {rev} failed")
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout,
                   check=True)


def run_once(tree, target_dir, workload, seed, seconds):
    """Runs one untraced perfbench measurement and returns its metrics."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir))
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=tree, env=env, text=True,
                          stdout=subprocess.PIPE)
    if done.returncode != 0 or not done.stdout.strip():
        fail(f"{workload} failed in {tree} (exit {done.returncode})")
    result = json.loads(done.stdout.splitlines()[-1])
    if result["correct"] is not True or result["failed"] != 0:
        fail(f"{workload} in {tree}: correct={result['correct']}, "
             f"failed={result['failed']} of {result['attempted']}")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(parent, change, better, bound):
    """The no-regression verdict for one metric of one workload.

    `parent` and `change` are the runs' values, `better` is "higher" or
    "lower", and `bound` the largest tolerated relative worsening of the
    median. "unresolved" when the parent's quartile spread, as a fraction
    of its median, is wider than the bound and not every change run beats
    every parent run; else "worse than bound" when the change's median is
    worse than the parent's by more than the bound; else "within bound".
    """
    higher = better == "higher"
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q1, p_q3 = quartiles(parent)
    beats_all = (min(change) > max(parent)) if higher else \
        (max(change) < min(parent))
    if (p_q3 - p_q1) > bound * abs(p_med) and not beats_all:
        return "unresolved"
    worsening = (p_med - c_med) if higher else (c_med - p_med)
    if worsening > bound * abs(p_med):
        return "worse than bound"
    return "within bound"


def report(workload, metric, parent, change):
    name, unit, higher = metric["name"], metric["unit"], metric["better"] == "higher"
    ratios = [c / p if p else float("inf") for p, c in zip(parent, change)]
    wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
    p_q1, p_q3 = quartiles(parent)
    c_q1, c_q3 = quartiles(change)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    print(f"{workload} {name} ({unit}, {metric['better']} is better)")
    print("  change/parent per pair: " + " ".join(f"{r:.3f}" for r in ratios))
    print(f"  parent median {p_med:.6g} (quartiles {p_q1:.6g}-{p_q3:.6g})")
    print(f"  change median {c_med:.6g} (quartiles {c_q1:.6g}-{c_q3:.6g})")
    median_ratio = c_med / p_med if p_med else float("inf")
    print(f"  change won {wins} of {len(ratios)} pairs; "
          f"median ratio {median_ratio:.3f}; |median gap| "
          f"{abs(c_med - p_med):.6g} vs parent quartile spread "
          f"{p_q3 - p_q1:.6g}")
    print(f"  verdict {workload} {name}: "
          f"{verdict(parent, change, metric['better'], metric['bound'])} "
          f"(bound {metric['bound']:g}, parent spread "
          f"{(p_q3 - p_q1) / p_med if p_med else float('inf'):.3f} "
          f"of its median)")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="parent revision")
    parser.add_argument("--workloads", required=True,
                        help="comma-separated perfbench workloads")
    parser.add_argument("--pairs", required=True, type=int)
    parser.add_argument("--seed", required=True, type=int)
    args = parser.parse_args()
    if args.pairs < 1 or args.seed < 0:
        parser.error("--pairs must be >= 1 and --seed >= 0")
    workloads = [w for w in args.workloads.split(",") if w]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds, metrics = spec["run_seconds"], spec["end_to_end"]

    with tempfile.TemporaryDirectory(prefix="perfbench-ab-") as tmp:
        tmp = Path(tmp)
        base_tree = tmp / "base"
        export_tree(args.base, base_tree)
        sides = {"parent": (base_tree, tmp / "build-parent"),
                 "change": (ROOT, tmp / "build-change")}
        for workload in workloads:
            runs = {"parent": [], "change": []}
            for pair in range(args.pairs):
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for side in order:
                    tree, target = sides[side]
                    runs[side].append(run_once(tree, target, workload,
                                               args.seed, seconds))
                print(f"{workload} pair {pair + 1}/{args.pairs} done "
                      f"({order[0]} first)", file=sys.stderr)
            for metric in metrics:
                name = metric["name"]
                report(workload, metric, [r[name] for r in runs["parent"]],
                       [r[name] for r in runs["change"]])
            sys.stdout.flush()


if __name__ == "__main__":
    main()
