#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it with the given flags, e.g.
#   bash benchmark/run.sh --workload zipf_cache --seed 1 --seconds 27 --trace 0
# Everything it writes (Go build cache, binary, trace files) stays inside
# the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/clipper-bench" .) >&2
exec "$build/clipper-bench" -out "$here/out" "$@"
