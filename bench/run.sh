#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash bench/run.sh --workload read4k --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The build cache, the binary and a
# traced run's files all go under .bench_build/ (or $CARGO_TARGET_DIR),
# so nothing is read from or written to the rest of the machine beyond
# the Go toolchain itself. Any argument is passed on to the benchmark;
# see bench/README.md.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp"
out="$(cd "$out" && pwd)"

export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"

(cd bench && go build -trimpath -o "$out/bench" .)
exec "$out/bench" -trace-dir "$out/trace" "$@"
