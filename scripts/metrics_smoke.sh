#!/usr/bin/env bash
# End-to-end observability smoke test: start a victim store and a gateway
# memfsd, push a workload through memfsctl, then assert that /metrics
# serves the expected metric families, /healthz folds in the detector and
# repair state, and `memfsctl stats` renders the page.
set -euo pipefail

cd "$(dirname "$0")/.."
workdir=$(mktemp -d)
trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "$workdir"' EXIT

go build -o "$workdir/memfsd" ./cmd/memfsd
go build -o "$workdir/memfsctl" ./cmd/memfsctl

VICTIM=127.0.0.1:7901
OWN=127.0.0.1:7900
HEALTH=127.0.0.1:7980

# -slow-op 1ns seeds the trace store: every operation counts as slow, so
# the tail sampler must retain the workload's traces for the /debug
# assertions below.
"$workdir/memfsd" -addr "$VICTIM" >"$workdir/victim.log" 2>&1 &
sleep 0.5
"$workdir/memfsd" -addr "$OWN" -health-addr "$HEALTH" -slow-op 1ns \
    -own "$OWN" -victims "$VICTIM" >"$workdir/gateway.log" 2>&1 &
sleep 1

head -c 1048576 /dev/urandom >"$workdir/blob"
"$workdir/memfsctl" -own "$OWN" -victims "$VICTIM" put /smoke "$workdir/blob"
"$workdir/memfsctl" -own "$OWN" -victims "$VICTIM" get /smoke "$workdir/out"
cmp "$workdir/blob" "$workdir/out"

# Push the same blob through the gateway's own data path via /io so its
# tracer and exemplars see real traffic (memfsctl above mounts its own
# client-side FileSystem; the gateway never sees those ops).
curl -sf -X PUT --data-binary "@$workdir/blob" "http://$HEALTH/io/gw-smoke"
curl -sf "http://$HEALTH/io/gw-smoke" >"$workdir/gwout"
cmp "$workdir/blob" "$workdir/gwout"

curl -sf "http://$HEALTH/metrics" >"$workdir/metrics.txt"

# Families spanning every instrumented layer must be declared.
for family in \
    memfss_store_bytes_used \
    memfss_store_uptime_seconds \
    memfss_kvstore_ops_total \
    memfss_kvstore_op_seconds \
    memfss_kvstore_attempt_seconds \
    memfss_fs_bytes_total \
    memfss_fs_op_seconds \
    memfss_fs_stripe_ops_total \
    memfss_fs_ec_hedged_reads_total \
    memfss_health_node_state \
    memfss_repair_queue_depth \
    memfss_repair_enqueued_total \
    memfss_obs_dropped_series \
    memfss_events_dropped
do
    grep -q "^# TYPE $family " "$workdir/metrics.txt" \
        || { echo "FAIL: family $family missing from /metrics"; exit 1; }
done

# The drop gauges say whether /metrics and /debug/events are complete;
# a two-node smoke run stays far below the per-family series cap.
grep -q '^memfss_obs_dropped_series 0$' "$workdir/metrics.txt" \
    || { echo "FAIL: memfss_obs_dropped_series is not 0"; exit 1; }

families=$(grep -c '^# TYPE ' "$workdir/metrics.txt")
[ "$families" -ge 12 ] || { echo "FAIL: only $families metric families (< 12)"; exit 1; }

healthz=$(curl -sf "http://$HEALTH/healthz")
echo "$healthz" | grep -q '"health"' || { echo "FAIL: /healthz missing detector states"; exit 1; }
echo "$healthz" | grep -q '"repair"' || { echo "FAIL: /healthz missing repair stats"; exit 1; }

"$workdir/memfsctl" stats "$HEALTH" >"$workdir/stats.txt"
grep -q '^health:' "$workdir/stats.txt" || { echo "FAIL: stats verb missing health section"; exit 1; }
grep -q '^repair queue:' "$workdir/stats.txt" || { echo "FAIL: stats verb missing repair section"; exit 1; }

# The seeded slow ops (1ns threshold) must be retained in the trace
# store with full span trees, and the histogram buckets must carry
# their trace IDs as exemplars.
curl -sf "http://$HEALTH/debug/traces?kind=slow" >"$workdir/traces.json"
grep -q '"op": "write"' "$workdir/traces.json" \
    || { echo "FAIL: no retained slow write trace in /debug/traces"; exit 1; }
grep -q '"name": "store"' "$workdir/traces.json" \
    || { echo "FAIL: retained traces carry no store spans"; exit 1; }
grep -q '"outcome": "ok"' "$workdir/traces.json" \
    || { echo "FAIL: retained spans carry no outcomes"; exit 1; }
grep -Eq '# \{trace_id="[0-9a-f]{16}"\}' "$workdir/metrics.txt" ||
    curl -sf "http://$HEALTH/metrics" | grep -Eq '# \{trace_id="[0-9a-f]{16}"\}' \
    || { echo "FAIL: no histogram bucket carries a trace exemplar"; exit 1; }

# One retained trace must resolve by ID to a span tree via the CLI.
trace_id=$(grep -Eo '"id": "[0-9a-f]{16}"' "$workdir/traces.json" | head -1 | grep -Eo '[0-9a-f]{16}')
[ -n "$trace_id" ] || { echo "FAIL: no trace ID in /debug/traces"; exit 1; }
"$workdir/memfsctl" trace "$HEALTH" get "$trace_id" >"$workdir/trace.txt"
grep -q 'store' "$workdir/trace.txt" || { echo "FAIL: trace get renders no store span"; exit 1; }
"$workdir/memfsctl" trace "$HEALTH" slow >"$workdir/slow.txt"
grep -q "$trace_id" "$workdir/slow.txt" || grep -q 'slow' "$workdir/slow.txt" \
    || { echo "FAIL: memfsctl trace slow lists nothing"; exit 1; }

# The flight recorder endpoint must answer (events may legitimately be
# empty on a healthy two-node run, but the surface must serve JSON).
curl -sf "http://$HEALTH/debug/events" >"$workdir/events.json"
head -c1 "$workdir/events.json" | grep -q '\[' \
    || { echo "FAIL: /debug/events is not a JSON array"; exit 1; }
"$workdir/memfsctl" trace "$HEALTH" events >/dev/null \
    || { echo "FAIL: memfsctl trace events against /debug/events"; exit 1; }

echo "metrics smoke: OK ($families families, slow trace $trace_id retained)"
