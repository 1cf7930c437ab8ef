#!/usr/bin/env bash
# Builds clsabench from the sources of the checkout it sits in and runs
# it with the given arguments, from the checkout's root:
#
#   bash clsabench/run.sh --workload sweep --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and Go's scratch files stay under
# .bench_build/ in the checkout, and the build never uses the network.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local
(cd "$root/clsabench" && go build -o "$out/clsabench" .)
cd "$root"
exec "$out/clsabench" "$@"
