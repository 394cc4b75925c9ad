#!/usr/bin/env bash
# Builds medcc-serve and the benchmark from the checkout's sources, then
# runs the benchmark with the given arguments. Run it from the root of
# the repository:
#
#   bash medccbench/run.sh --workload serve-hit --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go caches, binaries, per-run
# scratch) goes under .bench_build/ in the current directory.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	TMPDIR="$out/tmp" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

# With telemetry in its default "local" mode, the go command starts a
# detached copy of itself that outlives the build (and this script, when
# the build fails at once). Turning telemetry off for this private config
# directory keeps every process the run starts inside the run.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
printf 'off\n' >"$XDG_CONFIG_HOME/go/telemetry/mode"

go build -o "$out/medcc-serve" ./cmd/medcc-serve
(cd "$here" && go build -o "$out/medccbench" .)
exec "$out/medccbench" --server "$out/medcc-serve" --work "$out/work" "$@"
