#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, from
# the root of a checkout:
#
#   bash bench/run.sh --workload resnet20-sparse --seed 1 --seconds 15 --trace 0
#
# Everything the build writes (Go build cache, module cache, the binary,
# the fixture ledger) stays under .bench_build in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off GOTOOLCHAIN=local GOPROXY=off
(cd "$root/bench" && go build -o "$out/odq-bench" .)
exec "$out/odq-bench" "$@"
