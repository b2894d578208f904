#!/usr/bin/env sh
# bench.sh OUT.json ID — record a perf report.
#
# Runs the hot-path perf suite (cmd/bench -perf) and writes its JSON
# report, carrying ID, to OUT.json (relative paths land at the repo
# root), then validates the report's schema. BENCH_DUR sets the duration
# of each throughput measurement (default 2s). The committed
# BENCH_PR*.json files at the repo root are earlier reports, kept as
# history; the families each one introduced are described in CHANGES.md.
#
#   scripts/bench.sh BENCH_PR13.json pr13-one-data-plane
. "$(dirname "$0")/bench_lib.sh"
[ $# -eq 2 ] || { echo "usage: $0 OUT.json ID" >&2; exit 2; }
run_perf "$1" -id "$2" -dur "${BENCH_DUR:-2s}"
check_report "$1"
