# bench_lib.sh — shared plumbing for the recorder (bench.sh) and the CI
# bench gate (bench_gate.sh). Source it from a sibling script:
#
#   . "$(dirname "$0")/bench_lib.sh"
#   run_perf OUT.json -id some-id
#
# It pins the strict shell flags, moves to the repo root (so output paths
# land beside the code they measure), and provides run_perf, which runs
# the hot-path perf suite (cmd/bench -perf) with any extra flags passed
# through and echoes where the report landed.
set -eu
cd "$(dirname "$0")/.."

run_perf() {
	out="$1"
	shift
	go run ./cmd/bench -perf "$out" "$@"
	case "$out" in
	/*) echo "wrote $out" ;;
	*) echo "wrote $(pwd)/$out" ;;
	esac
}

# check_report validates a perf report's schema (required measurements
# present, finite, positive) without rerunning anything.
check_report() {
	go run ./cmd/bench -check "$1"
}
