#!/usr/bin/env python3
"""Build and run one workload of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Compiles perfbench/ together with the simulator sources in src/ (CMake,
Release) into .bench_build/, or into $CARGO_TARGET_DIR when it is set, then
runs the measuring program and relays its output. The last line of
standard output is the JSON result described in perfbench/README.md;
nothing is printed there when the build or the measurement fails.
"""

import argparse
import fcntl
import json
import math
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper8", "sleepgen-wide", "cohort", "campaign")
# The measuring program stops its trials long before this; the limit only
# guards against a hang.
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR")
    path = Path(target) if target else Path(".bench_build")
    return path if path.is_absolute() else ROOT / path


def run_logged(command, log):
    log.write("$ " + " ".join(command) + "\n")
    log.flush()
    return subprocess.run(command, stdout=log, stderr=subprocess.STDOUT).returncode == 0


def build(out):
    """Configures once, builds, and returns the measuring program's path."""
    if not (ROOT / "src" / "scenario" / "engine.h").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    out.mkdir(parents=True, exist_ok=True)
    cmake_dir = out / "cmake"
    log_path = out / "build.log"
    configure = ["cmake", "-S", str(HERE), "-B", str(cmake_dir),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(out / "build.lock", "w") as lock, open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per directory
        for _ in range(2):
            configured = ((cmake_dir / "CMakeCache.txt").is_file()
                          or run_logged(configure, log))
            if configured and run_logged(
                    ["cmake", "--build", str(cmake_dir), "--parallel", jobs], log):
                break
            # A cache from another checkout or generator: start over once.
            shutil.rmtree(cmake_dir, ignore_errors=True)
        else:
            sys.stderr.write(log_path.read_text()[-4000:])
            fail(f"the build failed; see {log_path}")
    binary = cmake_dir / "perfbench"
    if not binary.is_file():
        fail("the build produced no perfbench binary")
    return binary


def measure(binary, args, out):
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out-dir", str(out / "out")]
    # A session of its own, so a hung run goes down with the trials it forked.
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                               start_new_session=True)
    try:
        stdout, _ = process.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        fail(f"the measurement did not finish within {RUN_TIMEOUT_S} s")
    if process.returncode != 0:
        sys.stderr.write(stdout)
        fail(f"the measurement exited with code {process.returncode}")
    return stdout


def check_result(stdout, expected):
    """Fails unless the last line is a result carrying exactly `expected`."""
    lines = stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("the measuring program printed no JSON result")
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        fail("the result does not have exactly the keys "
             + ", ".join(sorted(RESULT_KEYS)))
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        fail("the result's metrics differ from BENCHMARK.json")
    for name, entry in metrics.items():
        value = entry.get("value")
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not math.isfinite(value)):
            fail(f"metric {name} has no finite value")
    attempted, failed = result["attempted"], result["failed"]
    if (not isinstance(attempted, int) or not isinstance(failed, int)
            or attempted < 1 or failed < 0):
        fail("the result's attempted and failed counts are malformed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        expected = [metric["name"] for metric in
                    spec["per_layer" if args.trace else "end_to_end"]]
    except (OSError, ValueError, KeyError, TypeError) as error:
        fail(f"cannot read BENCHMARK.json: {error}")
    out = build_dir()
    binary = build(out)
    stdout = measure(binary, args, out)
    check_result(stdout, expected)
    sys.stdout.write(stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
