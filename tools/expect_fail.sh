#!/bin/sh
# Runs a command that must refuse its input: it has to exit with status 1
# and name NAME (the offending knob or variable) in its output. Any other
# status fails, so an abort (134 from std::terminate) or a crash does not
# pass for a clean refusal.
# Usage: expect_fail.sh NAME COMMAND [ARGS...]
set -u

name=${1:?usage: expect_fail.sh NAME COMMAND [ARGS...]}
shift
out=$("$@" 2>&1)
status=$?
if [ "$status" -eq 0 ]; then
  echo "expect_fail: accepted: $*" >&2
  exit 1
fi
if [ "$status" -ne 1 ]; then
  echo "expect_fail: exit status $status, expected 1: $* -> $out" >&2
  exit 1
fi
if ! printf '%s\n' "$out" | grep -qF -- "$name"; then
  echo "expect_fail: error does not name $name: $* -> $out" >&2
  exit 1
fi
echo "expect_fail: OK ($* refused with status 1, naming $name)"
