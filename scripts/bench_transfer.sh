#!/usr/bin/env bash
# Runs the file-transfer benchmark (C5/C5b) and writes its JSON output as
# BENCH_transfer.json:
#   - BM_LocalImportXspaceToUspace       the local Xspace->Uspace copy
#   - BM_RemoteUspaceToUspaceViaGateway  whole-blob NJS–NJS delivery
#   - BM_RemoteChunkedDeliver            the chunked engine, 1-8 rails
#   - BM_RemoteFetchFile                 pulls: whole blob vs 4 rails
#
# Every row runs a fixed number of iterations, so each `virtual_ms` is a
# deterministic mean; CI compares it exactly against the committed file
# with scripts/check_bench_server.py.
#
# Usage: scripts/bench_transfer.sh [build-dir] [out-file]
# The build directory defaults to the plain preset's (`cmake --preset
# plain`).
set -euo pipefail

BUILD_DIR="${1:-build}"
OUT="${2:-BENCH_transfer.json}"

"$BUILD_DIR/bench/bench_transfer" \
  --benchmark_out="$OUT" --benchmark_out_format=json

echo "wrote $OUT"
