#!/usr/bin/env bash
# Builds the wfqperf benchmark from the sources in this checkout and runs it
# with the given arguments. Run it from the repository root:
#
#   bash wfqperf/run.sh --workload pairs --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (binary, Go build cache, temporary files, Go's
# config and telemetry files) stays in .bench_build/ under the root.
set -euo pipefail

if [[ ! -f go.mod || ! -f wfqueue.go || ! -f wfqperf/go.mod ]]; then
	echo "wfqperf/run.sh: run from the root of a wfqueue checkout" >&2
	exit 2
fi
out=$PWD/.bench_build
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0
(cd wfqperf && go build -o "$out/wfqperf" .)
exec "$out/wfqperf" "$@"
