#!/usr/bin/env bash
# What the PR driver runs. Builds the benchmark from source into
# <checkout>/.bench_build and runs it from the checkout root. The Go build
# cache, temporary files, the binary and the durable data (.bench_data) stay
# inside the checkout; nothing is fetched from the network.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOPROXY=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/slidb-benchmark" .)
cd "$root"
exec "$build/slidb-benchmark" "$@"
