#!/usr/bin/env bash
# Runs the security fast-path benchmarks and merges their JSON output
# into a single BENCH_security.json artifact:
#   - bench_handshake  BM_SecureHandshake     full vs resumed handshake
#   - bench_gateway    BM_AuthCache*          auth cache hit vs miss
#   - bench_crypto     seal/open + ctr        record-layer kernels
#                      sha256 + hmac          the hash kernels under them
#
# Usage: scripts/bench_security.sh [build-dir] [out-file]
# Extra benchmark flags go through BENCH_FLAGS, e.g.
#   BENCH_FLAGS=--benchmark_min_time=0.01 scripts/bench_security.sh
set -euo pipefail

BUILD_DIR="${1:-build}"
OUT="${2:-BENCH_security.json}"
FLAGS="${BENCH_FLAGS:-}"

tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT

run() { # run <binary> <filter> <out.json>
  "$BUILD_DIR/bench/$1" --benchmark_filter="$2" $FLAGS \
    --benchmark_out="$tmpdir/$3" --benchmark_out_format=json
}

run bench_handshake 'BM_SecureHandshake' handshake.json
run bench_gateway 'BM_AuthCache(Hit|Miss)|BM_CertificateToUidMapping/1000$' \
  gateway.json
run bench_crypto 'BM_(Seal|Open|CtrCrypt|Sha256|HmacSha256)' crypto.json

# Merge: one top-level object keyed by suite, each value the unmodified
# google-benchmark JSON document. Plain bash + printf — no extra deps.
{
  printf '{\n'
  first=1
  for suite in handshake gateway crypto; do
    [ "$first" -eq 1 ] || printf ',\n'
    first=0
    printf '"%s": ' "$suite"
    cat "$tmpdir/$suite.json"
  done
  printf '\n}\n'
} > "$OUT"

echo "wrote $OUT"
