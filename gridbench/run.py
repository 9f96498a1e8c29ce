#!/usr/bin/env python3
"""Builds the grid benchmark from source and runs one measurement.

    python3 gridbench/run.py --workload campaign|portal|staging \
        --seed N --seconds S --trace 0|1 [--size full|tiny]

Run it from the root of a checkout. The optimised build goes to
$CARGO_TARGET_DIR (default .bench_build) and is reused while the sources
are unchanged. Build output goes to stderr; stdout carries the benchmark
binary's output, whose last line is the result object. Traced runs write
their spans to <build dir>/spans/<workload>-<seed>.tsv.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "gridbench")


def build(directory):
    """Configures (once) and builds; returns the binary path or None."""
    jobs = str(min(4, os.cpu_count() or 1))
    # Keep the compiler's temporary files inside the build tree.
    env = dict(os.environ, TMPDIR=os.path.join(directory, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(directory, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", directory,
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append(["cmake", "--build", directory, "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  env=env, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as error:
            print(f"gridbench: build step failed: {error}", file=sys.stderr)
            return None
        if done.returncode != 0:
            print("gridbench: build failed", file=sys.stderr)
            return None
    binary = os.path.join(directory, "gridbench")
    return binary if os.path.exists(binary) else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["campaign", "portal", "staging"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full")
    args = parser.parse_args()

    directory = build_dir()
    binary = build(directory)
    if binary is None:
        return 1
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--size", args.size]
    if args.trace:
        spans = os.path.join(directory, "spans")
        os.makedirs(spans, exist_ok=True)
        command += ["--spans-out",
                    os.path.join(spans, f"{args.workload}-{args.seed}.tsv")]
    sys.stdout.flush()
    try:
        done = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("gridbench: run timed out", file=sys.stderr)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
