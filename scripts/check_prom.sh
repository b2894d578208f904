#!/usr/bin/env sh
# check_prom.sh — Prometheus exposition gate. Deploys a real serving
# node (remote model container over RPC + demo models + QoS; the pipeline
# window is measured by default), drives a few predictions through the REST API, then
# scrapes GET /metrics and validates the exposition text:
#
#   * every series line parses (metric-name and label-name grammar,
#     quoted/escaped label values, finite or Inf/NaN sample values)
#   * every series is preceded by the # HELP and # TYPE of its family
#     (histogram _bucket/_sum/_count children resolve to the parent family)
#   * no duplicate series (same name + label set twice)
#   * no family is a summary, and the five distribution families are
#     histograms whose series each list their buckets in increasing le with
#     counts that never fall, whose le="+Inf" bucket equals _count, and
#     which all carry the same le ladder within a family
#   * each cache aggregate (hits, misses, entries) equals the sum of its
#     per-shard series: one scrape shows one state of the cache
#   * the families each subsystem is expected to export are present
#
# No dependencies beyond POSIX sh + awk + curl-or-wget and the go
# toolchain. Usage: scripts/check_prom.sh
set -eu
cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
MC_PID=""
CL_PID=""
cleanup() {
  [ -n "$CL_PID" ] && kill "$CL_PID" 2>/dev/null || true
  [ -n "$MC_PID" ] && kill "$MC_PID" 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT INT TERM

fetch() { # fetch URL OUTFILE — curl preferred, wget fallback
  if command -v curl >/dev/null 2>&1; then
    curl -fsS -D "$workdir/headers" -o "$2" "$1"
  else
    wget -q -S -O "$2" "$1" 2>"$workdir/headers"
  fi
}

post() { # post URL BODY OUTFILE
  if command -v curl >/dev/null 2>&1; then
    curl -fsS -X POST -d "$2" -o "$3" "$1"
  else
    wget -q -O "$3" --post-data="$2" "$1"
  fi
}

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

echo "check_prom: building cmd/clipper and cmd/modelcontainer"
go build -o "$workdir/modelcontainer" ./cmd/modelcontainer
go build -o "$workdir/clipper" ./cmd/clipper

# A remote container so the RPC pool families light up; small synthetic
# dataset so training is fast. Seeds/dims must match the serving node.
"$workdir/modelcontainer" -addr 127.0.0.1:0 -train 300 -dim 16 -classes 4 \
  -seed 42 >"$workdir/mc.log" 2>&1 &
MC_PID=$!
mc_addr=$(wait_for_line "$workdir/mc.log" 's/.*serving on \([0-9.]*:[0-9]*\).*/\1/p')
echo "check_prom: model container on $mc_addr"

# -shed-policy + -container-conns 2 light the admission and pool telemetry
# series on top of the always-on families; the remote container's window
# is measured (nothing pins it), so the adaptive families are there too.
"$workdir/clipper" -addr 127.0.0.1:0 -train 300 -dim 16 -classes 4 \
  -slo 50ms -containers "$mc_addr" -container-conns 2 \
  -shed-policy degrade >"$workdir/cl.log" 2>&1 &
CL_PID=$!
cl_addr=$(wait_for_line "$workdir/cl.log" 's/.*serving app .* on http:\/\/\([0-9.:]*\) .*/\1/p')
echo "check_prom: serving node on $cl_addr"

input=$(awk 'BEGIN { s = ""; for (i = 0; i < 16; i++) s = s (i ? "," : "") "0.5"; print s }')
for _ in 1 2 3 4 5; do
  post "http://$cl_addr/api/v1/predict" "{\"app\":\"demo\",\"input\":[$input]}" \
    "$workdir/predict.json"
done
grep -q '"label"' "$workdir/predict.json" || {
  echo "FAIL: predict response carries no label:" >&2
  cat "$workdir/predict.json" >&2
  exit 1
}

fetch "http://$cl_addr/metrics" "$workdir/metrics.txt"
grep -qi 'text/plain; version=0.0.4' "$workdir/headers" || {
  echo "FAIL: /metrics content type is not the 0.0.4 exposition format:" >&2
  grep -i 'content-type' "$workdir/headers" >&2 || true
  exit 1
}

echo "check_prom: validating exposition grammar"
awk '
/^# HELP [a-zA-Z_:][a-zA-Z0-9_:]* / { help[$3] = 1; next }
/^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram|untyped)$/ {
  if ($3 in type) { print "NR" NR ": duplicate TYPE for " $3; bad = 1 }
  type[$3] = $4
  next
}
/^#/ { print "NR" NR ": malformed comment line: " $0; bad = 1; next }
/^$/ { next }
{
  if (!match($0, /^[a-zA-Z_:][a-zA-Z0-9_:]*/)) {
    print "NR" NR ": illegal metric name: " $0; bad = 1; next
  }
  name = substr($0, 1, RLENGTH)
  rest = substr($0, RLENGTH + 1)
  if (!match($0, /^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="([^"\\]|\\.)*"(,[a-zA-Z_][a-zA-Z0-9_]*="([^"\\]|\\.)*")*\})? (-?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?|[+-]Inf|NaN)$/)) {
    print "NR" NR ": unparseable series line: " $0; bad = 1; next
  }
  fam = name
  if (!(fam in type)) sub(/_(sum|count|bucket)$/, "", fam)
  if (!(fam in type)) { print "NR" NR ": series without # TYPE: " $0; bad = 1 }
  if (!(fam in help)) { print "NR" NR ": series without # HELP: " $0; bad = 1 }
  id = $0; sub(/ [^ ]*$/, "", id)
  if (id in seen) { print "NR" NR ": duplicate series: " id; bad = 1 }
  seen[id] = 1
  series++
}
END {
  if (series == 0) { print "no series in scrape"; bad = 1 }
  if (bad) exit 1
  print "check_prom: " series " series parse clean"
}
' "$workdir/metrics.txt"

echo "check_prom: checking histograms"
awk '
/^# TYPE / { kind[$3] = $4; next }
/^#/ || /^$/ { next }
{
  name = $0; sub(/[{ ].*/, "", name)
  fam = name; sub(/_(bucket|count)$/, "", fam)
  if (fam == name || kind[fam] != "histogram") next
  val = $NF
  labels = $0; sub(/ [^ ]*$/, "", labels); sub(/^[^{]*/, "", labels)
  if (name ~ /_count$/) { count[fam labels] = val; next }
  if (!match(labels, /le="[^"]*"/)) { print "NR" NR ": bucket without le: " $0; bad = 1; next }
  le = substr(labels, RSTART + 4, RLENGTH - 5)
  sub(/,?le="[^"]*"/, "", labels); sub(/^\{,?/, "{", labels)
  if (labels == "{}") labels = ""
  key = fam labels
  if (key in prev) {
    if (prevle[key] == "+Inf" || (le != "+Inf" && le + 0 <= prevle[key] + 0)) {
      print "NR" NR ": le=\"" le "\" after le=\"" prevle[key] "\": " $0; bad = 1
    }
    if (val + 0 < prev[key] + 0) { print "NR" NR ": bucket count falls as le rises: " $0; bad = 1 }
  }
  prev[key] = val; prevle[key] = le
  ladder[key] = ladder[key] "," le
  if (le == "+Inf") inf[key] = val
}
END {
  for (k in kind) if (kind[k] == "summary") { print "family " k " is a summary"; bad = 1 }
  n = split("clipper_batch_size clipper_batch_latency_seconds clipper_queue_delay_seconds clipper_app_latency_seconds clipper_gateway_latency_seconds", want, " ")
  for (i = 1; i <= n; i++) if (kind[want[i]] != "histogram") { print "family " want[i] " is not a histogram"; bad = 1 }
  for (k in ladder) {
    if (!(k in inf) || !(k in count) || inf[k] + 0 != count[k] + 0) { print k ": le=\"+Inf\" bucket " inf[k] " != _count " count[k]; bad = 1 }
    f = k; sub(/\{.*/, "", f)
    if ((f in famladder) && famladder[f] != ladder[k]) { print k ": le ladder differs from its family'"'"'s other series"; bad = 1 }
    famladder[f] = ladder[k]
  }
  if (bad) exit 1
  print "check_prom: histograms hold their invariants"
}
' "$workdir/metrics.txt"

echo "check_prom: checking cache aggregates against their shard series"
awk '
/^#/ || /^$/ { next }
{
  name = $0; sub(/[{ ].*/, "", name)
  if (name ~ /^clipper_cache_(hits_total|misses_total|entries)$/) agg[substr(name, 15)] = $NF
  else if (name ~ /^clipper_cache_shard_(hits_total|misses_total|entries)$/) sum[substr(name, 21)] += $NF
}
END {
  n = split("hits_total misses_total entries", want, " ")
  for (i = 1; i <= n; i++) {
    k = want[i]
    if (!(k in agg) || !(k in sum) || agg[k] + 0 != sum[k] + 0) {
      print "clipper_cache_" k " = " agg[k] ", its clipper_cache_shard_" k " series sum to " sum[k]; bad = 1
    }
  }
  if (bad) exit 1
  print "check_prom: cache aggregates equal the sums of their shard series"
}
' "$workdir/metrics.txt"

echo "check_prom: checking required families"
status=0
for fam in \
  clipper_cache_hits_total clipper_cache_misses_total clipper_cache_entries \
  clipper_cache_shard_hits_total clipper_cache_shard_probation_entries \
  clipper_cache_promotions_total clipper_cache_evictions_total \
  clipper_queue_queued clipper_queue_in_flight_queries \
  clipper_queue_completed_queries_total clipper_queue_arrival_rate \
  clipper_queue_dispatch_holds_total clipper_queue_dispatch_hold_seconds_total \
  clipper_replica_healthy clipper_replica_service_ewma_seconds \
  clipper_batch_size_bucket clipper_batch_latency_seconds_bucket \
  clipper_queue_delay_seconds_bucket clipper_app_latency_seconds_bucket \
  clipper_adaptive_window \
  clipper_pool_conns clipper_pool_live_conns clipper_pool_writes_total \
  clipper_sched_replicas clipper_sched_submitted_total \
  clipper_app_predictions_total clipper_app_qos clipper_app_slo_seconds \
  clipper_tenant_served_total \
  clipper_gateway_requests_total clipper_gateway_latency_seconds_bucket; do
  grep -q "^$fam" "$workdir/metrics.txt" || {
    echo "FAIL: family $fam missing from live scrape" >&2
    status=1
  }
done
[ "$status" -eq 0 ] || exit 1

# The predictions we sent must be visible in the counters.
grep -q 'clipper_app_predictions_total{app="demo"} [1-9]' "$workdir/metrics.txt" || {
  echo "FAIL: predictions not reflected in clipper_app_predictions_total" >&2
  grep 'clipper_app_predictions_total' "$workdir/metrics.txt" >&2 || true
  exit 1
}

echo "check_prom: OK"
