#!/usr/bin/env bash
# Builds cmd/smartndrd and the perfbench program from source, then runs
# perfbench with the given arguments. Everything the build and the run write
# lands under .bench_build/ at the repository root.
#
#   bash perfbench/run.sh --workload interactive --seed 1 --seconds 30 --trace 0
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
root="$(cd "$here/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOENV=off GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go -C "$root" build -o "$out/bin/smartndrd" ./cmd/smartndrd
go -C "$here" build -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" -daemon "$out/bin/smartndrd" -out "$out" "$@"
