#!/usr/bin/env python3
"""Fails when a deterministic benchmark counter drifts.

    python3 scripts/check_bench_server.py COMMITTED CURRENT [COUNTER ...]

Compares two Google Benchmark JSON files, such as the BENCH_server.json
written by scripts/bench_server.sh or the BENCH_transfer.json written by
scripts/bench_transfer.sh. A file may also hold one such document per
suite, keyed by suite name, as the BENCH_security.json written by
scripts/bench_security.sh does; its rows are then named SUITE:ROW. The
shape is read from each file. Each COUNTER is checked on every benchmark
row present in both files, in one of two forms:

  NAME/iterations  NAME divided by the row's iteration count must be equal.
                   For totals that grow with the iteration count.
  NAME             the value must be equal, and so must the iteration
                   count. For means over a pinned iteration count.

Without COUNTER arguments the record-pipeline counters are checked:
batch_frames/iterations and received/iterations. Both are integers fixed
by the workload, not by timing: BM_ServerChannelThroughput/channels:N
sends N frames carrying N messages per instant (one per channel), and
BM_ServerSmallRecordBatching/records:N coalesces N records into one
frame. They hold at any --benchmark_min_time, so a CI smoke run can be
checked against the committed file. bench_transfer pins every row's
iterations, so its virtual_ms (simulated milliseconds per transfer) is
compared as a plain value, as are BENCH_security.json's handshake
counters (virtual_ms, powmod_ops and resumed). A COUNTER that a row has
in neither file is skipped on that row, so one call can gate counters
that only some rows report (BENCH_store.json's restage rows and its
spill row, BENCH_security.json's handshake rows); each COUNTER
must still appear on at least one shared row, and a row that has it in
one file but not the other drifts. Wall-clock fields are never compared.
Exits 0 when every shared row matches and at least one row is shared.
"""

import json
import sys

DEFAULT_COUNTERS = ("batch_frames/iterations", "received/iterations")
PER_ITERATION = "/iterations"


def rows(path):
    with open(path) as f:
        document = json.load(f)
    if "benchmarks" in document:
        suites = {"": document}
    else:
        suites = {f"{suite}:": doc for suite, doc in document.items()}
    return {prefix + b["name"]: b
            for prefix, doc in suites.items() for b in doc["benchmarks"]
            if b.get("run_type", "iteration") == "iteration"}


def field_of(counter):
    if counter.endswith(PER_ITERATION):
        return counter[:-len(PER_ITERATION)]
    return counter


def drift_of(name, counter, want, got):
    """One line describing how `counter` moved on row `name`, or None."""
    field = field_of(counter)
    if field not in want and field not in got:
        return None  # a counter of other rows (checked below that some row has it)
    if field not in want or field not in got:
        return (f"{name}: {field} committed {want.get(field)!r}, "
                f"now {got.get(field)!r}")
    if counter.endswith(PER_ITERATION):
        # Cross-multiplied, so the comparison of the two ratios is exact.
        if (want[field] * got["iterations"] ==
                got[field] * want["iterations"]):
            return None
        return (f"{name}: {counter} committed "
                f"{want[field] / want['iterations']:g}, now "
                f"{got[field] / got['iterations']:g}")
    if want["iterations"] != got["iterations"]:
        return (f"{name}: iterations committed {want['iterations']}, now "
                f"{got['iterations']} (needed to compare {counter})")
    if want[counter] == got[counter]:
        return None
    return (f"{name}: {counter} committed {want[counter]!r}, "
            f"now {got[counter]!r}")


def main():
    if len(sys.argv) < 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    committed, current = rows(sys.argv[1]), rows(sys.argv[2])
    counters = sys.argv[3:] or DEFAULT_COUNTERS
    shared = sorted(set(committed) & set(current))
    if not shared:
        print("check_bench_server: no benchmark row in both files")
        return 1
    drift = []
    for name in shared:
        for counter in counters:
            line = drift_of(name, counter, committed[name], current[name])
            if line is not None:
                drift.append(line)
    for counter in counters:
        if not any(field_of(counter) in committed[name] for name in shared):
            drift.append(f"{counter}: on no row in both files")
    for line in drift:
        print("DRIFT", line)
    if drift:
        print("check_bench_server: FAILED")
        return 1
    print(f"check_bench_server: ok ({len(shared)} rows, "
          f"{' '.join(counters)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
