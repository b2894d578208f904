#!/bin/sh
# Ratchet for ROADMAP's "tracked numbers that should go down": fails when
# cmd/clipper grows a flag, docs/ARCHITECTURE.md's tuning-knob table grows
# a row, the non-test Go lines outside benchmark/ grow, docs/ARCHITECTURE.md
# grows, or the tests under internal/ gain a wall-clock time.Sleep call,
# past the ceilings below. Lower a ceiling in the PR that shrinks its
# number; raising one needs a reason in the PR.
set -eu
cd "$(dirname "$0")/.."
max_flags=16
max_rows=13
max_loc=15229
max_arch_lines=593
max_sleeps=68

flags=$(grep -cE 'flag\.(String|Int|Bool|Duration|Float64)\(' cmd/clipper/main.go)
# Table rows under "## Tuning knobs", minus the header and separator rows.
rows=$(awk '/^## /{t = ($0 == "## Tuning knobs")} t && /^\|/{n++} END{print n - 2}' docs/ARCHITECTURE.md)
loc=$(find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' -print0 | xargs -0 cat | wc -l)
arch=$(wc -l < docs/ARCHITECTURE.md)
sleeps=$(find internal -name '*_test.go' -print0 | xargs -0 grep -o 'time\.Sleep(' | wc -l)
echo "check_knobs: cmd/clipper flags=$flags (max $max_flags), knob-table rows=$rows (max $max_rows), non-test Go lines=$loc (max $max_loc), ARCHITECTURE.md lines=$arch (max $max_arch_lines), time.Sleep calls in internal tests=$sleeps (max $max_sleeps)"

fail=0
[ "$flags" -le "$max_flags" ] || { echo "FAIL: cmd/clipper has $flags flags, ceiling is $max_flags" >&2; fail=1; }
[ "$rows" -le "$max_rows" ] || { echo "FAIL: knob table has $rows rows, ceiling is $max_rows" >&2; fail=1; }
[ "$loc" -le "$max_loc" ] || { echo "FAIL: $loc non-test Go lines outside benchmark/, ceiling is $max_loc" >&2; fail=1; }
[ "$arch" -le "$max_arch_lines" ] || { echo "FAIL: docs/ARCHITECTURE.md has $arch lines, ceiling is $max_arch_lines" >&2; fail=1; }
[ "$sleeps" -le "$max_sleeps" ] || { echo "FAIL: tests under internal/ call time.Sleep $sleeps times, ceiling is $max_sleeps" >&2; fail=1; }
exit $fail
