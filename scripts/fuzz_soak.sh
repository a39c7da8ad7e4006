#!/usr/bin/env bash
# fuzz_soak.sh [seconds-per-target, default 60] — local fuzz soak.
#
# Discovers every Fuzz* target in internal/kvstore and internal/erasure
# with `go test -list` and runs each for the given time (`go test -fuzz`
# takes one target and one package at a time). Not a CI step: CI runs the
# targets' seed corpora as ordinary tests; this is for soaking a decoder
# change before it ships. A crasher lands in the package's
# testdata/fuzz/<target>/ and fails the script.
set -euo pipefail
cd "$(dirname "$0")/.."

SECONDS_PER_TARGET=${1:-60}
for pkg in ./internal/kvstore/ ./internal/erasure/; do
    for target in $(go test -list '^Fuzz' "$pkg" | grep '^Fuzz'); do
        echo "== fuzz soak: $pkg $target for ${SECONDS_PER_TARGET}s"
        go test -run '^$' -fuzz "^${target}\$" -fuzztime "${SECONDS_PER_TARGET}s" "$pkg"
    done
done
echo "fuzz soak: all targets ran clean"
