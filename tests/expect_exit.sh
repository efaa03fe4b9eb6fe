#!/bin/sh
# Exit-code check for CLI fixtures, run by ctest.
#
#   expect_exit.sh <code> <pattern> <command> [args...]
#
# Runs the command and passes only if it exits with <code> and its
# combined stdout/stderr matches the extended regex <pattern>
# (PASS_REGULAR_EXPRESSION alone would ignore the exit code).
set -u

EXPECTED="$1"
PATTERN="$2"
shift 2

OUTPUT=$("$@" 2>&1)
CODE=$?
printf '%s\n' "$OUTPUT"
if [ "$CODE" -ne "$EXPECTED" ]; then
  echo "FAIL: exit code $CODE, expected $EXPECTED" >&2
  exit 1
fi
if ! printf '%s\n' "$OUTPUT" | grep -Eq -e "$PATTERN"; then
  echo "FAIL: output does not match '$PATTERN'" >&2
  exit 1
fi
