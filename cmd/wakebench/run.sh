#!/usr/bin/env bash
# Builds cmd/wakebench from source and runs it with the given flags, from
# the root of a checkout:
#
#   bash cmd/wakebench/run.sh --workload device-heavy --seed 1 --seconds 20 --trace 0
#
# Every file the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binary and the CPU profiles of traced
# runs. Without the repository sources next to this directory the build
# fails and the script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off GOTOOLCHAIN=local

(cd "$here" && go build -o "$out/wakebench" .)
exec "$out/wakebench" "$@"
