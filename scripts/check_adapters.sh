#!/usr/bin/env sh
# check_adapters.sh — protocol-adapter integration gate. Boots one
# serving node with both adapters (HTTP JSON, stream) on ephemeral
# ports, then drives an open-loop loadgen smoke against each. Both speak
# to the same gateway core, so the gate proves the two-protocol surface
# end to end: each adapter must complete predictions with zero errors at
# a modest offered rate.
#
# No dependencies beyond POSIX sh + the go toolchain.
# Usage: scripts/check_adapters.sh
set -eu
cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
CL_PID=""
cleanup() {
  [ -n "$CL_PID" ] && kill "$CL_PID" 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT INT TERM

wait_for_line() { # wait_for_line LOGFILE SED_EXPR — prints first match
  i=0
  while :; do
    addr=$(sed -n "$2" "$1" | head -n 1)
    if [ -n "$addr" ]; then
      echo "$addr"
      return 0
    fi
    i=$((i + 1))
    if [ "$i" -gt 150 ]; then
      echo "timed out waiting for $1" >&2
      cat "$1" >&2
      return 1
    fi
    sleep 0.2
  done
}

echo "check_adapters: building cmd/clipper and cmd/loadgen"
go build -o "$workdir/clipper" ./cmd/clipper
go build -o "$workdir/loadgen" ./cmd/loadgen

# One node, two listeners, one gateway core. Small synthetic dataset
# so training is fast.
"$workdir/clipper" -addr 127.0.0.1:0 -listen-stream 127.0.0.1:0 \
  -train 300 -dim 16 -classes 4 -slo 50ms >"$workdir/cl.log" 2>&1 &
CL_PID=$!
http_addr=$(wait_for_line "$workdir/cl.log" 's/.*serving app .* on http:\/\/\([0-9.:]*\) .*/\1/p')
stream_addr=$(wait_for_line "$workdir/cl.log" 's/.*stream adapter on \([0-9.:]*\).*/\1/p')
echo "check_adapters: http=$http_addr stream=$stream_addr"

smoke() { # smoke PROTO TARGET — open-loop run; zero errors required
  proto="$1"
  target="$2"
  "$workdir/loadgen" -proto "$proto" -target "$target" -app demo -dim 16 \
    -rate "${ADAPTER_SMOKE_RATE:-100}" -duration "${ADAPTER_SMOKE_DUR:-2s}" \
    -users 32 >"$workdir/$proto.out" 2>&1 || {
    echo "FAIL: loadgen against $proto adapter exited nonzero:" >&2
    cat "$workdir/$proto.out" >&2
    return 1
  }
  cat "$workdir/$proto.out"
  grep -q ' errors=0 ' "$workdir/$proto.out" || {
    echo "FAIL: $proto adapter smoke saw errors" >&2
    return 1
  }
  completed=$(sed -n 's/.*completed=\([0-9]*\).*/\1/p' "$workdir/$proto.out" | head -n 1)
  [ -n "$completed" ] && [ "$completed" -gt 0 ] || {
    echo "FAIL: $proto adapter completed no predictions" >&2
    return 1
  }
  echo "check_adapters: $proto ok ($completed completed)"
}

smoke http "http://$http_addr"
smoke stream "$stream_addr"

echo "check_adapters: OK"
