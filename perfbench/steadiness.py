#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread into STEADINESS.json.

    python3 perfbench/steadiness.py

Runs run.py back to back on every workload of BENCHMARK.json, twenty
times with --trace 0 and run_seconds: alternately one run of the series
`seeds` (seeds 1 to 10, as the bounds are checked) and one of the series
`seed1` (seed 1 every time, so the inputs never change and only the host
moves the figures). For every end-to-end metric of each series it records
the median, the quartiles (statistics.quantiles, n=4), the spread (the
distance between the quartiles as a share of the median) and the ten
values, and writes the record to perfbench/STEADINESS.json.
"""

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def run_once(workload, seed, seconds):
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    output = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, check=True).stdout
    result = json.loads(output.splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"steadiness: {workload} seed {seed} is incorrect")
    return result["metrics"]


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    record = {"host": f"{os.cpu_count()} CPUs, {platform.machine()}",
              "runs": RUNS, "seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        series = {"seeds": [], "seed1": []}
        for run in range(RUNS):
            series["seeds"].append(run_once(workload, 1 + run, seconds))
            series["seed1"].append(run_once(workload, 1, seconds))
        record["workloads"][workload] = {}
        for name, runs in series.items():
            metrics = {}
            for metric in spec["end_to_end"]:
                values = [run[metric["name"]]["value"] for run in runs]
                metrics[metric["name"]] = summary(values)
                print(f"{workload:14} {name:6} {metric['name']:15} "
                      f"median {metrics[metric['name']]['median']:.6g} "
                      f"spread {metrics[metric['name']]['spread']:.4f} "
                      f"(bound {metric['bound']})", flush=True)
            record["workloads"][workload][name] = metrics
    (HERE / "STEADINESS.json").write_text(json.dumps(record, indent=2) + "\n")


if __name__ == "__main__":
    main()
