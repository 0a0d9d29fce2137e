#!/usr/bin/env bash
# Builds the benchmark harness inside the checkout and runs it. The
# harness builds the program under test (cmd/nlfl) itself, so that build
# is timed (proc.build_s). Everything the Go toolchain and a run write
# lands in benchmark/out/ of the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/benchmark/out"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local CGO_ENABLED=0
go build -C benchmark -o "$out/nlflbench" .
exec "$out/nlflbench" "$@"
