#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload factor-smp --seed 1 --seconds 10 --trace 0
#
# Every build product (the Go build cache and the binary) goes under the
# build directory, $CARGO_TARGET_DIR or .bench_build, inside the checkout.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomodcache"
export GOCACHE=$out/gocache GOTMPDIR=$out/gotmp GOMODCACHE=$out/gomodcache
export GOFLAGS= GOWORK=off GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local
export PERFBENCH_OUT=$out
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
