#!/bin/sh
# Every output destination is checked before any simulation: an
# unwritable --trace/--trace-chrome/--obs/--prometheus file or
# --trace-dir/--obs-dir/--telemetry destination must exit 1 with a
# one-line "cannot ..." message on stderr and nothing on stdout.
#
# Usage: bad_output_paths.sh PEXP_EXE EXPERIMENTS_EXE
pexp=$1
experiments=$2
status=0

expect_refusal() {
  "$@" > refusal.out 2> refusal.err
  code=$?
  if [ "$code" -ne 1 ]; then
    echo "FAIL (exit $code, want 1): $*"
    status=1
  elif [ -s refusal.out ]; then
    echo "FAIL (wrote stdout before refusing): $*"
    status=1
  elif [ "$(wc -l < refusal.err)" -ne 1 ] || ! grep -q '^cannot ' refusal.err; then
    echo "FAIL (want one 'cannot ...' line on stderr): $*"
    cat refusal.err
    status=1
  fi
}

for flag in --trace --trace-chrome --obs --prometheus; do
  expect_refusal "$pexp" --app schedule --bug 3 "$flag" /nonexistent/x.out
done
expect_refusal "$experiments" --trace-dir /proc/nope tab2
expect_refusal "$experiments" --obs-dir /proc/nope tab2
expect_refusal "$experiments" --telemetry /nonexistent/t.json tab2
touch not-a-dir
expect_refusal "$experiments" --trace-dir not-a-dir tab2
rm -f refusal.out refusal.err not-a-dir
exit $status
