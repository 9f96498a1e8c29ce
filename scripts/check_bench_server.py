#!/usr/bin/env python3
"""Fails when the server record pipeline's coalescing drifts.

    python3 scripts/check_bench_server.py COMMITTED CURRENT

Compares two BENCH_server.json files written by scripts/bench_server.sh.
For every benchmark row present in both, batch_frames / iterations and
received / iterations must be equal. Both ratios are integers fixed by the
workload, not by timing: BM_ServerChannelThroughput/channels:N sends N
frames carrying N messages per instant (one per channel), and
BM_ServerSmallRecordBatching/records:N coalesces N records into one frame.
They hold at any --benchmark_min_time, so a CI smoke run can be checked
against the committed file. Wall-clock fields are not compared. Exits 0
when every shared row matches and at least one row is shared.
"""

import json
import sys

COUNTERS = ("batch_frames", "received")


def rows(path):
    with open(path) as f:
        benchmarks = json.load(f)["benchmarks"]
    return {b["name"]: b for b in benchmarks
            if b.get("run_type", "iteration") == "iteration"}


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    committed, current = rows(sys.argv[1]), rows(sys.argv[2])
    shared = sorted(set(committed) & set(current))
    if not shared:
        print("check_bench_server: no benchmark row in both files")
        return 1
    drift = []
    for name in shared:
        want, got = committed[name], current[name]
        for counter in COUNTERS:
            # Cross-multiplied, so the comparison of the two ratios is exact.
            if (want[counter] * got["iterations"] !=
                    got[counter] * want["iterations"]):
                drift.append(
                    f"{name}: {counter}/iterations committed "
                    f"{want[counter] / want['iterations']:g}, now "
                    f"{got[counter] / got['iterations']:g}")
    for line in drift:
        print("DRIFT", line)
    if drift:
        print("check_bench_server: FAILED")
        return 1
    print(f"check_bench_server: ok ({len(shared)} rows)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
