#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload colocate --seed 1 --seconds 25 --trace 0
#
# Every build artifact (binary, Go build cache, temp files) goes under
# .bench_build/ at the root of the checkout, so a run writes nowhere
# else. Without the enclosing module (../go.mod) the build fails and
# the script exits non-zero without printing a result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
# The build never downloads: the module needs nothing outside the
# checkout.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
