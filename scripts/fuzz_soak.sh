#!/usr/bin/env bash
# fuzz_soak.sh [seconds-per-target, default 60] — fuzz soak.
#
# Discovers every Fuzz* target in internal/kvstore, internal/erasure and
# internal/fsmeta with `go test -list` and runs each for the given time
# (`go test -fuzz` takes one target and one package at a time). CI runs it
# at 10 s per target, on top of the seed corpora every `go test` runs;
# soak a decoder or coder change for longer before it ships. A crasher
# lands in the package's testdata/fuzz/<target>/ and fails the script.
set -euo pipefail
cd "$(dirname "$0")/.."

SECONDS_PER_TARGET=${1:-60}
for pkg in ./internal/kvstore/ ./internal/erasure/ ./internal/fsmeta/; do
    for target in $(go test -list '^Fuzz' "$pkg" | grep '^Fuzz'); do
        echo "== fuzz soak: $pkg $target for ${SECONDS_PER_TARGET}s"
        go test -run '^$' -fuzz "^${target}\$" -fuzztime "${SECONDS_PER_TARGET}s" "$pkg"
    done
done
echo "fuzz soak: all targets ran clean"
