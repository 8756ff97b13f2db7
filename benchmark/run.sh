#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given (it builds cmd/rfidserve itself). Everything the build and the
# run write (Go build cache, binaries, temp dirs, server data dirs) stays under
# .bench_build in the checkout root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out/tmp" "$out/gocache" "$out/gopath"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$out/benchmark" .)
exec "$out/benchmark" "$@"
