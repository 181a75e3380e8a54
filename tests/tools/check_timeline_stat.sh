#!/usr/bin/env bash
# Acceptance gate for `vespera-stat timeline` (the ISSUE tentpole's
# diffing arm): identical timeline sections exit 0; a perturbed window
# exits nonzero naming the series and the FIRST offending window;
# --skip-windows excuses warm-up; SLO flag flips and first-violation
# drift are gated; documents without a timeline section are a usage
# error.
#
#   check_timeline_stat.sh <path-to-vespera-stat>
set -u

stat_bin="${1:?usage: check_timeline_stat.sh <vespera-stat>}"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

fail() { echo "FAIL: $*" >&2; exit 1; }

cat > "$tmp/base.json" <<'EOF'
{
  "schema": "vespera-metrics/v2.2",
  "tool": "check_timeline_fixture",
  "counters": {},
  "timeline": {
    "interval_seconds": 0.5,
    "series": {
      "run.goodput_tokens_per_sec": {
        "dropped": 0,
        "samples": [
          [0.5, 110],
          [1.0, 220],
          [1.5, 330],
          [2.0, 440]
        ]
      },
      "run.queue_depth": {
        "dropped": 0,
        "samples": [
          [0.5, 4],
          [1.0, 8],
          [1.5, 6],
          [2.0, 2]
        ]
      }
    },
    "slo": {
      "run.ttft_p99_seconds": {
        "bound": 2.0,
        "violated": true,
        "first_violation_seconds": 1.5,
        "first_violation_value": 2.5
      }
    }
  }
}
EOF

# 1. Identical timelines compare clean.
out="$("$stat_bin" timeline "$tmp/base.json" "$tmp/base.json")"
rc=$?
[ "$rc" -eq 0 ] || fail "identical docs exited $rc: $out"
echo "$out" | grep -q "^OK" || fail "identical docs not OK: $out"

# 2. A 33% value drift in window 2: nonzero exit, localized to the
#    first offending window of the named series.
sed 's/330/440/' "$tmp/base.json" > "$tmp/window2.json"
out="$("$stat_bin" timeline "$tmp/base.json" "$tmp/window2.json")"
rc=$?
[ "$rc" -eq 1 ] || fail "window drift exited $rc (want 1): $out"
echo "$out" | grep -q \
    "REGRESSION run.goodput_tokens_per_sec window 2" \
    || fail "first offending window not localized: $out"

# 3. The same drift passes under a looser gate...
"$stat_bin" timeline --threshold=0.50 \
    "$tmp/base.json" "$tmp/window2.json" > /dev/null \
    || fail "50% gate rejected a 33% window drift"

# 4. ...but a per-series override re-tightens just that series.
"$stat_bin" timeline --threshold=0.50 \
    --threshold=run.goodput=0.10 \
    "$tmp/base.json" "$tmp/window2.json" > /dev/null \
    && fail "per-series override did not gate"

# 5. --ignore excludes the offender entirely.
"$stat_bin" timeline --ignore=run.goodput \
    "$tmp/base.json" "$tmp/window2.json" > /dev/null \
    || fail "--ignore did not exclude the regression"

# 6. Warm-up drift (window 0) fails by default and is excused by
#    --skip-windows.
sed 's/110/999/' "$tmp/base.json" > "$tmp/warmup.json"
"$stat_bin" timeline "$tmp/base.json" "$tmp/warmup.json" > /dev/null \
    && fail "window-0 drift passed without --skip-windows"
"$stat_bin" timeline --skip-windows=1 \
    "$tmp/base.json" "$tmp/warmup.json" > /dev/null \
    || fail "--skip-windows=1 did not excuse window-0 drift"

# 7. A timestamp shift is a regression even when values match: the
#    schedule itself moved.
sed 's/0.5, 110/0.75, 110/' "$tmp/base.json" > "$tmp/tshift.json"
out="$("$stat_bin" timeline "$tmp/base.json" "$tmp/tshift.json")"
[ $? -eq 1 ] || fail "timestamp shift did not fail: $out"
echo "$out" | grep -q '\[timestamp\]' \
    || fail "timestamp shift not flagged as such: $out"

# 8. Window-count drift (an extra trailing window) is a regression.
sed 's/\[2.0, 440\]/[2.0, 440], [2.5, 550]/' "$tmp/base.json" \
    > "$tmp/extra.json"
out="$("$stat_bin" timeline "$tmp/base.json" "$tmp/extra.json")"
[ $? -eq 1 ] || fail "window-count drift did not fail: $out"
echo "$out" | grep -q "window count" \
    || fail "window-count drift not named: $out"

# 9. SLO regressions: a violated-flag flip always fails; a drifted
#    first-violation timestamp fails at the default gate and passes a
#    per-SLO override.
sed 's/"violated": true/"violated": false/' "$tmp/base.json" \
    > "$tmp/sloflip.json"
out="$("$stat_bin" timeline "$tmp/base.json" "$tmp/sloflip.json")"
[ $? -eq 1 ] || fail "SLO flag flip did not fail: $out"
echo "$out" | grep -q "violated flag" || fail "SLO flip not named: $out"
sed 's/"first_violation_seconds": 1.5/"first_violation_seconds": 2.5/' \
    "$tmp/base.json" > "$tmp/slodrift.json"
"$stat_bin" timeline "$tmp/base.json" "$tmp/slodrift.json" \
    > /dev/null && fail "first-violation drift passed the default gate"
"$stat_bin" timeline \
    --threshold=slo.run.ttft_p99_seconds=0.80 \
    "$tmp/base.json" "$tmp/slodrift.json" > /dev/null \
    || fail "per-SLO threshold override did not apply"

# 10. A removed series is lost coverage: fail, named.
sed 's/"run.queue_depth"/"run.queue_renamed"/' "$tmp/base.json" \
    > "$tmp/renamed.json"
out="$("$stat_bin" timeline "$tmp/base.json" "$tmp/renamed.json")"
[ $? -eq 1 ] || fail "removed series did not fail: $out"
echo "$out" | grep -q "REMOVED    run.queue_depth" \
    || fail "removed series not named: $out"
echo "$out" | grep -q "added      run.queue_renamed" \
    || fail "added series should be informational: $out"

# 11. --json report round-trips the verdict.
out="$("$stat_bin" timeline --json --skip-windows=1 \
        "$tmp/base.json" "$tmp/window2.json")"
echo "$out" | grep -q '"schema": "vespera-stat-timeline/v1"' \
    || fail "json schema: $out"
echo "$out" | grep -q '"pass": false' || fail "json pass flag: $out"
echo "$out" | grep -q '"skip_windows": 1' || fail "json skip field"

# 12. A metrics document without a timeline section is a usage error
#    (exit 2) that tells the user which flag produces one.
cat > "$tmp/plain.json" <<'EOF'
{ "schema": "vespera-metrics/v2.2", "counters": {} }
EOF
err="$("$stat_bin" timeline "$tmp/plain.json" "$tmp/base.json" 2>&1)"
[ $? -eq 2 ] || fail "missing timeline section not exit 2: $err"
echo "$err" | grep -q -- "--timeline-interval" \
    || fail "missing-section error should name the flag: $err"
"$stat_bin" timeline "$tmp/base.json" 2> /dev/null
[ $? -eq 2 ] || fail "missing operand not rejected with exit 2"

# 13. Malformed or negative --skip-windows / --threshold values are
#     usage errors (exit 2), not a silent 0.
for bad in --skip-windows=abc --skip-windows=-1 --skip-windows= \
           --skip-windows=2x --threshold=abc --threshold=-1 \
           --threshold=run.goodput=x; do
    "$stat_bin" timeline "$bad" "$tmp/base.json" "$tmp/base.json" \
        2> /dev/null
    [ $? -eq 2 ] || fail "timeline $bad not rejected with exit 2"
done

echo "TIMELINE_STAT_OK"
