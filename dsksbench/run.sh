#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it, passing
# every argument through:
#
#   bash dsksbench/run.sh --workload lookup --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The build cache, the binary and the
# run's temporary files all stay under $CARGO_TARGET_DIR (default
# .bench_build) in the checkout. See dsksbench/README.md.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false

(cd dsksbench && go build -o "$out/dsksbench" .)
exec "$out/dsksbench" "$@"
