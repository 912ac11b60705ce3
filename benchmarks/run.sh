#!/usr/bin/env bash
# Builds fsdbench from source inside the checkout and runs it with the
# caller's arguments. Everything the build writes (binary, Go build cache)
# stays under .bench_build/ at the checkout root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOWORK=off GOENV=off
(cd "$here" && go build -o "$build/fsdbench" ./fsdbench)
cd "$root"
exec "$build/fsdbench" "$@"
