#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Run from the root of a checkout:
#
#	bash bench/run.sh --workload serve_read --seed 1 --seconds 8 --trace 0
#
# It builds the benchmark (this directory, its own module) and the
# program under test (cmd/apss) from source into .bench_build/ inside
# the checkout, keeps the Go build cache there too so nothing is
# written outside the checkout, and then runs the benchmark binary
# with the arguments it was given. See bench/README.md.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/bench/go.mod" ] || [ ! -f "$root/go.mod" ]; then
	echo "bench/run.sh: run from the root of a bayeslsh checkout (need ./go.mod and ./bench/go.mod)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off
go build -C "$root/bench" -o "$out/bin/bench" .
go build -C "$root" -o "$out/bin/apss" ./cmd/apss
exec "$out/bin/bench" -apss "$out/bin/apss" "$@"
