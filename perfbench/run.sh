#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload lockd-spread --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (binary, Go build cache) stays under
# .bench_build/ at the root of the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/home"
export HOME="$build/home" GOCACHE="$build/gocache" GOPATH="$build/gopath" \
	GOMODCACHE="$build/gopath/pkg/mod" GOENV=off GOFLAGS= GOTOOLCHAIN=local \
	GOTELEMETRY=off CGO_ENABLED=0
(cd perfbench && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
