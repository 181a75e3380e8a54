#!/usr/bin/env bash
# Byte-identical-output check for the parallel runtime (docs/runtime.md):
# runs a bench binary at 1, 2, and 8 threads and requires the metrics
# JSON document AND the figure output on stdout to match byte-for-byte.
#
# The permitted differences are host-side telemetry in the stdout
# counter summary, which by design varies with thread count and is
# already excluded from the metrics JSON (obs/export.cc): the pool's
# own counters (runtime.tasks, runtime.steals, ...) and the replay-cache
# hit/miss counts (replay.*), which depend on how the pool interleaves
# the serving engine's prefetches. Those lines are filtered before
# comparing.
#
# Usage: check_determinism.sh <bench-binary> [extra args...]
set -euo pipefail

bench="$1"
shift || true

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

run_at() {
    local threads="$1"
    shift
    # Same --metrics path every run so the "wrote metrics to ..."
    # stdout line is identical; snapshot the JSON per thread count.
    "$bench" "$@" --threads="$threads" --metrics="$workdir/m.json" \
        2>/dev/null | grep -v -e '^runtime\.' -e '^replay\.' \
        > "$workdir/t$threads.out"
    mv "$workdir/m.json" "$workdir/t$threads.json"
}

run_at 1 "$@"
for threads in 2 8; do
    run_at "$threads" "$@"
    if ! cmp -s "$workdir/t1.json" "$workdir/t$threads.json"; then
        echo "FAIL: metrics JSON differs between --threads=1 and" \
             "--threads=$threads for $bench" >&2
        diff "$workdir/t1.json" "$workdir/t$threads.json" | head -40 >&2
        exit 1
    fi
    if ! cmp -s "$workdir/t1.out" "$workdir/t$threads.out"; then
        echo "FAIL: stdout differs between --threads=1 and" \
             "--threads=$threads for $bench" >&2
        diff "$workdir/t1.out" "$workdir/t$threads.out" | head -40 >&2
        exit 1
    fi
done
echo "OK: $bench output byte-identical at 1/2/8 threads"
