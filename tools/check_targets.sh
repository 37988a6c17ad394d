#!/bin/sh
# Fails naming every executable that no registered ctest runs. Each
# TARGET=PATH argument is one executable; it counts as run when PATH is an
# element of some test's command line. Run from the build directory.
# Usage: check_targets.sh CTEST TARGET=PATH...
set -u

ctest=${1:?usage: check_targets.sh CTEST TARGET=PATH...}
shift
tests=$("$ctest" --show-only=json-v1) || exit 1
missing=""
for pair in "$@"; do
  if ! printf '%s\n' "$tests" | grep -qF -- "\"${pair#*=}\""; then
    missing="$missing ${pair%%=*}"
  fi
done
if [ -n "$missing" ]; then
  echo "check_targets: executables no ctest runs:$missing" >&2
  exit 1
fi
echo "check_targets: OK ($# executables, each run by a ctest)"
