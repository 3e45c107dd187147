#!/usr/bin/env bash
# Builds the susc binary and the benchmark driver from the checkout this
# is run in, then runs one measurement:
#
#   bash perfbench/run.sh --workload plan-family --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every build artefact, cache and scratch
# file lands under .bench_build/ in that root.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/susc" ] || [ ! -d "$root/perfbench" ]; then
	echo "perfbench: run from the root of a susc source checkout (go.mod, cmd/susc and perfbench/ must exist)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= GOWORK=off \
	GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off

go build -o "$out/susc" ./cmd/susc
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" -susc "$out/susc" -out "$out" "$@"
