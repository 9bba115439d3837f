#!/usr/bin/env bash
# Runs one fuzz target for the CI fuzz smoke: 30 s of fuzzing, with the
# minimisation of each new interesting input bounded to 10 executions
# (Go's default spends up to 60 s per input, which can eat the whole
# budget), then fails unless the run executed at least floor inputs.
#
#   bash .github/fuzz-smoke.sh ./internal/topology/ FuzzSwappedBuilder 20000
set -euo pipefail
pkg=$1 target=$2 floor=$3
log=$(mktemp)
go test -run='^$' -fuzz="^${target}\$" -fuzztime=30s -fuzzminimizetime=10x "$pkg" 2>&1 | tee "$log"
execs=$(grep -o 'execs: [0-9]*' "$log" | tail -n 1 | cut -d' ' -f2)
rm -f "$log"
if [ "${execs:-0}" -lt "$floor" ]; then
	echo "::error::$target ran ${execs:-0} execs in 30 s, below its floor of $floor"
	exit 1
fi
echo "$target: $execs execs in 30 s (floor $floor)"
