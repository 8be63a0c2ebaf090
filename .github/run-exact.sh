#!/usr/bin/env bash
# Run tests by their exact names and fail unless every named test ran:
#
#   .github/run-exact.sh <cargo test args> -- <test name>...
#
# cargo's test filter is a substring match, so a name that matches no
# test (a renamed or deleted test) would otherwise pass vacuously. The
# names are passed with --exact, and the "N passed" count of the one
# test binary must equal the number of names.
set -euo pipefail
args=()
while [ $# -gt 0 ] && [ "$1" != "--" ]; do
    args+=("$1")
    shift
done
if [ $# -lt 2 ]; then
    echo "usage: $0 <cargo test args> -- <test name>..." >&2
    exit 2
fi
shift
status=0
out=$(cargo test "${args[@]}" -- --exact "$@" 2>&1) || status=$?
printf '%s\n' "$out"
[ "$status" -eq 0 ] || exit "$status"
if ! grep -q "^test result: ok\. $# passed;" <<<"$out"; then
    echo "expected $# tests to pass by name: $*" >&2
    exit 1
fi
