#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the checkout's root.
# Everything it writes — the Go build cache, the binary, WAL segments,
# traces — goes under .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOTOOLCHAIN=local
# The checkout the driver runs in is not a git repository; where it is one
# but git cannot read it, build without the revision stamp instead of failing.
(cd "$root/bench" && { go build -o "$out/panebench" . 2>"$out/tmp/build.err" ||
	go build -buildvcs=false -o "$out/panebench" .; })
cd "$root"
exec "$out/panebench" -dir "$out" "$@"
