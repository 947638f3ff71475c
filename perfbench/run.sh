#!/usr/bin/env bash
# Builds qec-serve and the load generator from the checkout this is run in,
# then runs the load generator with the given arguments, for example:
#
#   bash perfbench/run.sh --workload expand-cold --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the repository. Everything the build and the run
# write stays under .bench_build/ in that directory: the Go build cache, the
# two binaries and the traced run's span files.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"

# Keep the Go toolchain's caches, temporary files and telemetry inside the
# checkout, and never let it reach for the network.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go build -o "$out/qec-serve" ./cmd/qec-serve >&2
(cd perfbench && go build -o "$out/perfbench" .) >&2

exec "$out/perfbench" -server "$out/qec-serve" -out "$out" "$@"
