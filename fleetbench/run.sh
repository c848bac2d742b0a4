#!/usr/bin/env bash
# run.sh builds proxyd, proxyrouter and the fleetbench driver from the source
# tree it is started in and runs the driver with the given flags.  Run it from
# the repository root:
#
#   bash fleetbench/run.sh --workload cold-sweep --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: binaries, the Go build cache, process logs, results,
# spans and output digests.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/proxyd" ] || [ ! -d "$root/cmd/proxyrouter" ]; then
  echo "fleetbench: run from the root of a dataproxy source tree" >&2
  exit 2
fi
mkdir -p "$out/bin" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off
export HOME="$out/home" XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home"

go build -o "$out/bin/proxyd" ./cmd/proxyd
go build -o "$out/bin/proxyrouter" ./cmd/proxyrouter
(cd fleetbench && go build -o "$out/bin/fleetbench" .)
exec "$out/bin/fleetbench" -bin "$out/bin" -out "$out" "$@"
