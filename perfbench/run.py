#!/usr/bin/env python3
"""Builds the benchmark program from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The first call configures and builds
perfbench/CMakeLists.txt (the repository's libraries plus swr_perfbench) into
.bench_build/perfbench; later calls rebuild only what changed. Its work
files and traced-run spans go under .bench_build/perfbench-out.

The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; with --trace 0 its metrics
are BENCHMARK.json's end_to_end list, with --trace 1 its per_layer list.
Any build or run error exits non-zero without printing a result.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench-out")
BINARY = os.path.join(BUILD_DIR, "swr_perfbench")
RUN_TIMEOUT_S = 170


def build():
    """Configures until a build system exists, then builds swr_perfbench.

    cmake's own output goes to stderr, keeping stdout for the result.
    """
    os.makedirs(BUILD_DIR, exist_ok=True)
    # Serialise concurrent runs in one checkout around the build.
    with open(os.path.join(BUILD_DIR, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        generated = ("build.ninja", "Makefile")
        if not any(os.path.exists(os.path.join(BUILD_DIR, g)) for g in generated):
            cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            subprocess.run(cmd, check=True, stdout=sys.stderr)
        subprocess.run(
            ["cmake", "--build", BUILD_DIR, "--target", "swr_perfbench", "-j", "2"],
            check=True,
            stdout=sys.stderr,
        )


def expected_metrics(trace):
    """The metric names BENCHMARK.json promises for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [
        BINARY,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", args.trace,
        "--out-dir", OUT_DIR,
    ]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: swr_perfbench exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"run.py: swr_perfbench exited with {proc.returncode}", file=sys.stderr)
        return 1

    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        want = expected_metrics(args.trace == "1")
    except (IndexError, ValueError, OSError, KeyError) as e:
        print(f"run.py: unreadable result or BENCHMARK.json: {e}", file=sys.stderr)
        return 1
    got = {name: m.get("unit") for name, m in result.get("metrics", {}).items()}
    if set(result) != {"correct", "attempted", "failed", "metrics"} or got != want:
        print("run.py: result keys or metrics do not match BENCHMARK.json", file=sys.stderr)
        return 1

    sys.stdout.write(proc.stdout if proc.stdout.endswith("\n") else proc.stdout + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
