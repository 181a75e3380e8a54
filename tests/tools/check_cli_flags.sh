#!/usr/bin/env bash
# Malformed command-line values exit 2 with a message instead of
# silently becoming 0 or being ignored: the bench harness
# (bench/bench_common.h), bench_selfperf's google-benchmark
# passthrough, and vespera-lint.
#
#   check_cli_flags.sh <bench-binary> <bench_selfperf> <vespera-lint>
set -u

bench="${1:?usage: check_cli_flags.sh <bench> <bench_selfperf> <vespera-lint>}"
selfperf="${2:?missing bench_selfperf}"
lint="${3:?missing vespera-lint}"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

fail() { echo "FAIL: $*" >&2; exit 1; }

# expect_usage_error <binary> <args...>: exit 2 and a message on stderr.
expect_usage_error() {
    local bin="$1"
    shift
    "$bin" "$@" > /dev/null 2> "$tmp/err"
    local rc=$?
    [ "$rc" -eq 2 ] || fail "$(basename "$bin") $* exited $rc (want 2)"
    [ -s "$tmp/err" ] || fail "$(basename "$bin") $* printed no message"
}

# 1. Unknown flags are errors, and a misspelt --metrics writes nothing.
expect_usage_error "$bench" --quiet --metric="$tmp/x.json"
[ -e "$tmp/x.json" ] && fail "misspelt --metrics wrote a file"
expect_usage_error "$bench" --quiet positional

# 2. --threads wants a non-negative integer.
expect_usage_error "$bench" --quiet --threads=abc
expect_usage_error "$bench" --quiet --threads=-1
expect_usage_error "$bench" --quiet --threads=2x
expect_usage_error "$bench" --quiet --threads=
expect_usage_error "$bench" --quiet --threads

# 3. --timeline-interval wants a finite number >= 0.
expect_usage_error "$bench" --quiet --timeline-interval=-1
expect_usage_error "$bench" --quiet --timeline-interval=abc
expect_usage_error "$bench" --quiet --timeline-interval=inf

# 4. Well-formed values still run.
"$bench" --quiet --threads 2 --metrics="$tmp/m.json" 2> /dev/null \
    || fail "--threads 2 rejected"
[ -s "$tmp/m.json" ] || fail "--metrics not written"
"$bench" --quiet --threads=1 --timeline-interval=0.5 2> /dev/null \
    || fail "--timeline-interval=0.5 rejected"

# 5. bench_selfperf hands --benchmark_* flags to google-benchmark and
#    rejects anything else.
"$selfperf" --quiet --benchmark_list_tests=true 2> /dev/null \
    || fail "bench_selfperf rejected a --benchmark_ flag"
expect_usage_error "$selfperf" --quiet --metric="$tmp/y.json"
expect_usage_error "$selfperf" --quiet --threads=abc

# 6. vespera-lint: --top-k wants a positive integer, and
#    --update-baseline refuses a --kernel subset (it would drop every
#    other kernel from the baseline).
for bad in abc 0 -3 2x ""; do
    expect_usage_error "$lint" tune --top-k="$bad"
done
echo '{}' > "$tmp/baseline.json"
expect_usage_error "$lint" --kernel=softmax \
    --baseline="$tmp/baseline.json" --update-baseline
[ "$(cat "$tmp/baseline.json")" = '{}' ] \
    || fail "--update-baseline with --kernel rewrote the baseline"

echo "CLI_FLAGS_OK"
