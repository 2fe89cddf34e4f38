#!/bin/sh
# Bad arguments are refused before any simulation: an unwritable
# --trace/--trace-chrome/--obs/--prometheus file or
# --trace-dir/--obs-dir/--telemetry destination, an unknown pexp --app or
# a --bug the workload does not plant must exit 1 with one line on stderr
# and nothing on stdout.
#
# Usage: bad_output_paths.sh PEXP_EXE EXPERIMENTS_EXE
pexp=$1
experiments=$2
status=0

# expect_exit1 PATTERN CMD...: CMD exits 1, writes nothing on stdout and
# exactly one stderr line, matching PATTERN.
expect_exit1() {
  want=$1
  shift
  "$@" > refusal.out 2> refusal.err
  code=$?
  if [ "$code" -ne 1 ]; then
    echo "FAIL (exit $code, want 1): $*"
    status=1
  elif [ -s refusal.out ]; then
    echo "FAIL (wrote stdout before refusing): $*"
    status=1
  elif [ "$(wc -l < refusal.err)" -ne 1 ] || ! grep -q "$want" refusal.err; then
    echo "FAIL (want one '$want' line on stderr): $*"
    cat refusal.err
    status=1
  fi
}

expect_refusal() { expect_exit1 '^cannot ' "$@"; }

for flag in --trace --trace-chrome --obs --prometheus; do
  expect_refusal "$pexp" --app schedule --bug 3 "$flag" /nonexistent/x.out
done
expect_refusal "$experiments" --trace-dir /proc/nope tab2
expect_refusal "$experiments" --obs-dir /proc/nope tab2
expect_refusal "$experiments" --telemetry /nonexistent/t.json tab2
touch not-a-dir
expect_refusal "$experiments" --trace-dir not-a-dir tab2
expect_exit1 "^unknown workload 'nosuch'" "$pexp" --app nosuch
expect_exit1 '^workload schedule has no bug version 99$' \
  "$pexp" --app schedule --bug 99
rm -f refusal.out refusal.err not-a-dir
exit $status
