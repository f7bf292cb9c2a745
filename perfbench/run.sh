#!/usr/bin/env bash
# Builds the benchmark and the serve shard binary from this checkout's
# sources, then runs one workload:
#
#   bash perfbench/run.sh --workload warm_point --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache, the
# ingest workload's data directory and traced runs' span files all stay
# under $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off

[ -f "$root/go.mod" ] && [ -d "$root/cmd/serve" ] || {
	echo "perfbench: run from the repository root (go.mod and cmd/serve not found)" >&2
	exit 1
}
go build -o "$out/bin/serve" ./cmd/serve >&2
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .) >&2

exec "$out/bin/perfbench" --serve-bin "$out/bin/serve" --work-dir "$out" "$@"
