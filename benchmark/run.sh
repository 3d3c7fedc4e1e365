#!/usr/bin/env bash
# Builds distbench from the sources of the checkout that holds this script and
# runs it from the checkout root; every argument is passed through:
#
#   bash benchmark/run.sh --workload solve-grid --seed 1 --seconds 12 --trace 0
#
# All build output (binary, Go build and module caches, temporary files, the
# go command's own configuration and telemetry) stays under .bench_build/ in
# the checkout. The toolchain never touches the network.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [ ! -f go.mod ] || [ ! -f experiments_output.txt ] || [ ! -d internal ]; then
	echo "distbench: $root is not a distlap checkout (go.mod, internal/ or experiments_output.txt missing)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/home"
(
	export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" GOPATH="$out/gopath"
	export GOCACHE="$out/gocache" GOMODCACHE="$out/gopath/pkg/mod" GOTMPDIR="$out/tmp"
	export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= GOENV=off
	cd benchmark
	go build -o "$out/distbench" .
)
exec "$out/distbench" "$@"
