#!/usr/bin/env python3
"""Determinism test of the grid benchmark.

    python3 gridbench/test_determinism.py

For each workload at the tiny size: two runs with one seed must report
identical virtual-time metrics, registry counts and input digests (each
run also checks its own rounds against each other), and a run with
another seed must generate different inputs. Exits 0 when all hold.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["campaign", "portal", "staging"]
SEED, OTHER_SEED = 7, 8


def fingerprint(workload, seed):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed), "--seconds", "0",
               "--trace", "0", "--size", "tiny"]
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} did not run:\n"
                           f"{done.stderr[-2000:]}")
    detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        raise RuntimeError(f"{workload} seed {seed} reported incorrect "
                           f"output:\n{done.stderr[-2000:]}")
    return detail


def main():
    failures = []
    for workload in WORKLOADS:
        first = fingerprint(workload, SEED)
        second = fingerprint(workload, SEED)
        other = fingerprint(workload, OTHER_SEED)
        for key in ("virtual", "counts", "input_digest"):
            if first[key] != second[key]:
                failures.append(f"{workload}: {key} differs between two runs "
                                f"of seed {SEED}")
        if other["input_digest"] == first["input_digest"]:
            failures.append(f"{workload}: seeds {SEED} and {OTHER_SEED} "
                            "generated the same inputs")
        print(f"{workload}: inputs {first['input_digest']} (seed {SEED}), "
              f"{other['input_digest']} (seed {OTHER_SEED}); "
              f"{len(first['virtual'])} virtual metrics, "
              f"{len(first['counts'])} registry series compared")
    for failure in failures:
        print("FAIL", failure)
    print("determinism: " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
