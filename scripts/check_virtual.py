#!/usr/bin/env python3
"""Fails when a deterministic counter of the grid benchmark drifts.

    python3 scripts/check_virtual.py            compare against the golden
    python3 scripts/check_virtual.py --update   rewrite the golden file

Runs every workload once through gridbench/run.py (--size tiny --seed 7
--seconds 0 --trace 0) and compares the fingerprint line's `virtual`
metrics and registry `counts` exactly against scripts/virtual_golden.json.
Both are functions of the seed alone, so any difference is a behaviour
change: either a regression, or an intended change whose new values must
be committed with --update. Exits 0 when every workload matches.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN = os.path.join(HERE, "virtual_golden.json")
WORKLOADS = ["campaign", "portal", "staging"]
SEED = 7
KEYS = ("virtual", "counts")


def fingerprint(workload):
    command = [sys.executable, os.path.join(ROOT, "gridbench", "run.py"),
               "--workload", workload, "--seed", str(SEED), "--seconds", "0",
               "--trace", "0", "--size", "tiny"]
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=900, cwd=ROOT)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} did not run:\n{done.stderr[-2000:]}")
    detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        raise RuntimeError(f"{workload} reported incorrect output:\n"
                           f"{done.stderr[-2000:]}")
    return {key: detail[key] for key in KEYS}


def differences(workload, golden, current):
    out = []
    for key in KEYS:
        want, got = golden.get(key, {}), current[key]
        for name in sorted(set(want) | set(got)):
            if want.get(name) != got.get(name):
                out.append(f"{workload}.{key}.{name}: golden "
                           f"{want.get(name)}, now {got.get(name)}")
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true",
                        help="rewrite the golden file from this checkout")
    args = parser.parse_args()

    current = {workload: fingerprint(workload) for workload in WORKLOADS}
    if args.update:
        with open(GOLDEN, "w") as out:
            json.dump(current, out, indent=1, sort_keys=True)
            out.write("\n")
        print(f"check_virtual: wrote {os.path.relpath(GOLDEN, ROOT)}")
        return 0

    with open(GOLDEN) as golden_file:
        golden = json.load(golden_file)
    drift = []
    for workload in WORKLOADS:
        drift += differences(workload, golden.get(workload, {}),
                             current[workload])
    for line in drift:
        print("DRIFT", line)
    print("check_virtual: " + ("FAILED" if drift else "ok"))
    return 1 if drift else 0


if __name__ == "__main__":
    sys.exit(main())
