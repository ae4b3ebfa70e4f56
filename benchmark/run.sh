#!/usr/bin/env bash
# Builds the benchmark from source and runs it; BENCHMARK.json's command.
# Run from the root of a checkout: bash benchmark/run.sh --workload W ...
# Everything it writes stays inside the checkout: the binary and the Go
# build cache under .bench_build/, traces and durable data under
# benchmark/out/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"

# The benchmark imports the engine's packages from the enclosing module.
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ]; then
	echo "benchmark: $root is not a checkout of the engine (no go.mod / internal/)" >&2
	exit 2
fi

# The go command's own files (build cache, module path, telemetry
# counters) are pointed into the checkout too; the module has no
# dependency outside the standard library, so nothing is downloaded.
mkdir -p "$build"
(
	cd "$here"
	GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
		GOTOOLCHAIN=local GOFLAGS= go build -o "$build/benchmark" .
)
exec "$build/benchmark" -dir "$here/out" "$@"
