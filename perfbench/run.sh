#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from and
# runs it. Run from the checkout root:
#
#   bash perfbench/run.sh --workload replay --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, binary, temp
# stores, span files) stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
# The build uses only the checkout and the installed toolchain: no module
# downloads (GOPROXY=off), no toolchain switch, no files outside it.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/mod" \
	TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local \
	GOTELEMETRY=off GOPROXY=off GOSUMDB=off GOFLAGS= GOENV=off
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
