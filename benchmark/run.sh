#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# from the root of a checkout. Everything the build writes — the
# binary and the Go build cache — stays in .bench_build in the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTOOLCHAIN=local
export XDG_CONFIG_HOME="$build/config"
# The commit is stamped into the binary when the checkout is a git
# repository; where git cannot say, build without the stamp.
(cd "$here" && { go build -o "$build/polybench" . 2>/dev/null || go build -buildvcs=false -o "$build/polybench" .; })
exec "$build/polybench" "$@"
