#!/usr/bin/env bash
# The committed vespera-lint baselines are what the code finds today:
# each mode's --write-baseline output equals its committed file byte
# for byte (kernel rules, migration scorecard, tune opportunities).
#
#   check_lint_baselines.sh <vespera-lint> <source-dir>
set -u

lint="${1:?usage: check_lint_baselines.sh <vespera-lint> <source-dir>}"
src="${2:?missing source dir}"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

fail() { echo "FAIL: $*" >&2; exit 1; }

# check <committed baseline> [mode]
check() {
    local committed="$src/tools/$1"
    shift
    local out="$tmp/$(basename "$committed")"
    "$lint" "$@" --write-baseline="$out" > /dev/null \
        || fail "vespera-lint $* --write-baseline exited $?"
    cmp "$committed" "$out" \
        || fail "vespera-lint $* baseline differs from tools/$(basename "$committed")"
}

check lint_static_baseline.json
check migrate_baseline.json migrate
check lint_tune_baseline.json tune
echo "OK: three vespera-lint baselines reproduce byte for byte"
