#!/usr/bin/env sh
# bench_gate.sh — the CI bench-JSON gate.
#
# Runs the perf suite at smoke duration, then validates that the emitted
# report and the committed BENCH_PR10.json both carry every required
# measurement with a finite, strictly positive value (cmd/bench -check).
# Earlier BENCH_PR*.json reports are history, not gated: the required
# measurement list grows PR over PR, so only the latest report can
# satisfy it. This is schema sanity, not absolute-performance gating: CI
# runners are single-core and shared, so the gate asserts the
# measurements exist and are non-degenerate, never that they are fast.
. "$(dirname "$0")/bench_lib.sh"

out="${BENCH_GATE_OUT:-/tmp/bench_gate.json}"
BENCH_DUR="${BENCH_GATE_DUR:-500ms}" sh scripts/bench.sh "$out" bench-gate-smoke
check_report BENCH_PR10.json
echo "bench gate ok"
