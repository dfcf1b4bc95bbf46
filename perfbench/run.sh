#!/usr/bin/env bash
# Builds the Engine.Query benchmark from this checkout's sources and runs
# it from the checkout root, passing every argument through:
#
#   bash perfbench/run.sh --workload anchored --seed 1 --seconds 25 --trace 0
#
# The Go build cache, config and module paths are kept under .bench_build so
# that building and running touch nothing outside the checkout.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
