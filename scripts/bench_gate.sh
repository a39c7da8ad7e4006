#!/usr/bin/env bash
# bench_gate.sh — CI allocation gate for the kvstore hot path, the
# erasure coder and the core data path.
#
# Runs the Wire* benchmarks (internal/kvstore/hotpath_bench_test.go), the
# RS42 benchmarks (internal/erasure/rs_test.go) and the Core* benchmarks
# (internal/core/obs_test.go) with -benchmem at a fixed iteration count
# and fails if any benchmark's allocs/op (or, where one is given, B/op)
# exceeds its budget in scripts/allocs_budget.txt.
# Prints a benchstat-style table (measured vs budget, headroom) into
# the job log either way.
#
# allocs/op is the gated metric because it is deterministic at a fixed
# -benchtime on any machine; ns/op and MB/s are printed for context but
# never gated (CI runners are too noisy for wall-clock thresholds — what
# span tracing costs is benchmark/'s trace.overhead_pct, measured on one
# op list in one process).
set -euo pipefail
cd "$(dirname "$0")/.."

BUDGET_FILE=scripts/allocs_budget.txt
BENCHTIME=${BENCHTIME:-1000x}
OUT=$(mktemp)
trap 'rm -f "$OUT"' EXIT

echo "== bench gate: go test -bench Wire -benchmem -benchtime $BENCHTIME ./internal/kvstore/"
go test -run '^$' -bench Wire -benchmem -benchtime "$BENCHTIME" -count 1 ./internal/kvstore/ | tee "$OUT"
echo
echo "== bench gate: go test -bench RS42 -benchmem -benchtime $BENCHTIME ./internal/erasure/"
go test -run '^$' -bench RS42 -benchmem -benchtime "$BENCHTIME" -count 1 ./internal/erasure/ | tee -a "$OUT"
echo
echo "== bench gate: go test -bench '^BenchmarkCore' -benchmem -benchtime $BENCHTIME ./internal/core/"
go test -run '^$' -bench '^BenchmarkCore' -benchmem -benchtime "$BENCHTIME" -count 1 ./internal/core/ | tee -a "$OUT"
echo

awk -v budget_file="$BUDGET_FILE" '
BEGIN {
    while ((getline line < budget_file) > 0) {
        if (line ~ /^[[:space:]]*(#|$)/) continue
        split(line, f, /[[:space:]]+/)
        budget[f[1]] = f[2] + 0
        if (f[3] != "") bytes_budget[f[1]] = f[3] + 0
    }
    printf "%-36s %12s %12s %10s   %s\n", "name", "allocs/op", "budget", "headroom", "status"
    fail = 0
}
/^Benchmark/ && /allocs\/op/ {
    name = $1
    sub(/-[0-9]+$/, "", name)            # strip GOMAXPROCS suffix
    for (i = 1; i <= NF; i++) {
        if ($i == "allocs/op") allocs = $(i - 1) + 0
        if ($i == "B/op") bytes = $(i - 1) + 0
    }
    if ((name in bytes_budget) && bytes > bytes_budget[name]) {
        printf "%-36s %12d %12d %10s   %s\n", name " B/op", bytes, bytes_budget[name], "-", "FAIL"
        fail = 1
    }
    if (!(name in budget)) {
        printf "%-36s %12d %12s %10s   %s\n", name, allocs, "-", "-", "MISSING BUDGET"
        fail = 1
        next
    }
    b = budget[name]
    status = (allocs <= b) ? "ok" : "FAIL"
    if (allocs > b) fail = 1
    printf "%-36s %12d %12d %9d%%   %s\n", name, allocs, b, (b > 0 ? int(100 * (b - allocs) / b) : 0), status
    seen[name] = 1
}
END {
    for (name in budget)
        if (!(name in seen)) {
            printf "%-36s %12s %12d %10s   %s\n", name, "-", budget[name], "-", "NOT RUN"
            fail = 1
        }
    if (fail) {
        print ""
        print "bench gate FAILED: allocs/op or B/op over budget, or budget/benchmark mismatch."
        print "If the regression is intentional, update scripts/allocs_budget.txt with rationale."
        exit 1
    }
    print ""
    print "bench gate OK: all hot-path benchmarks within allocation budget."
}' "$OUT"

# --- chaos scenario SLO floors ----------------------------------------
# The committed BENCH_scenarios.json is the SLO trajectory: one point per
# `memfss-bench -scenario` run. The runner already asserts each
# scenario's own (tight, per-scenario) SLOs at run time and exits
# nonzero; this section is the coarser repo-wide floor over the *latest*
# point per scenario, so a regressed trajectory file can never merge
# even if nobody re-ran the matrix: zero loss, bounded recovery, and an
# availability ceiling on every stream.
SCEN_FILE=${SCEN_FILE:-BENCH_scenarios.json}
SCEN_MAX_RECOVERY_MS=${SCEN_MAX_RECOVERY_MS:-30000}
SCEN_MAX_ERROR_RATE=${SCEN_MAX_ERROR_RATE:-0.05}
if [ "${SKIP_SCENARIO_GATE:-0}" != "1" ] && [ -f "$SCEN_FILE" ]; then
    echo
    echo "== scenario SLO floors: $SCEN_FILE (recovery <= ${SCEN_MAX_RECOVERY_MS}ms, error rate <= ${SCEN_MAX_ERROR_RATE})"
    python3 - "$SCEN_FILE" "$SCEN_MAX_RECOVERY_MS" "$SCEN_MAX_ERROR_RATE" <<'PY'
import json, sys

path, max_recovery_ms, max_rate = sys.argv[1], float(sys.argv[2]), float(sys.argv[3])
points = json.load(open(path))
latest = {}  # scenario -> last appended point (the file is append-only)
for p in points:
    latest[p["scenario"]] = p

fail = False
for name in sorted(latest):
    p = latest[name]
    probs = []
    if not p.get("passed"):
        probs.append("runner verdict FAIL: " + "; ".join(p.get("violations") or ["?"]))
    if p.get("fsck_damaged", 0) or p.get("loss_mismatches", 0):
        probs.append("data loss: fsck_damaged=%d mismatches=%d"
                     % (p.get("fsck_damaged", 0), p.get("loss_mismatches", 0)))
    if p.get("recovery_timed_out"):
        probs.append("recovery timed out")
    if p.get("recovery_ms", 0) > max_recovery_ms:
        probs.append("recovery %.0fms > floor %.0fms" % (p["recovery_ms"], max_recovery_ms))
    for s in p.get("streams") or []:
        if s.get("worst_window_rate", 0) > max_rate:
            probs.append("stream %s error rate %.4f > floor %.4f"
                         % (s.get("name"), s["worst_window_rate"], max_rate))
    status = "FAIL: " + "; ".join(probs) if probs else "ok"
    print("%-28s recovery=%6.0fms streams=%d   %s"
          % (name, p.get("recovery_ms", 0), len(p.get("streams") or []), status))
    fail = fail or bool(probs)

if len(latest) < 8:
    print("scenario gate FAILED: only %d scenario(s) in %s, want the full 8-point matrix" % (len(latest), path))
    fail = True
if fail:
    print()
    print("scenario gate FAILED: the latest trajectory point violates a repo-wide SLO floor.")
    print("Re-run `go run ./cmd/memfss-bench -scenario all` and fix the regression (do not just refresh the file).")
    sys.exit(1)
print()
print("scenario gate OK: latest point per scenario within the repo-wide SLO floors.")
PY
fi
