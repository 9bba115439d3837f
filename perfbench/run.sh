#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload paper-1k --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Build outputs, the Go build cache and
# the benchmark's scratch files all stay under .bench_build/ in the
# current directory; nothing is fetched from the network.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
[[ $out == /* ]] || out="$root/$out"
mkdir -p "$out"
# Keep the toolchain's cache, module path and config (telemetry
# included) inside the build directory, and never download anything.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
export PERFBENCH_SCRATCH="$out"
exec "$out/perfbench" "$@"
