#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the benchmark from this
# checkout's source with every Go cache and temporary file kept under
# bench/out, then runs it with the arguments given.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$here/out"
mkdir -p "$out/bin" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$out/bin/bench" .)
cd "$here/.."
exec "$out/bin/bench" "$@"
