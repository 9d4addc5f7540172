#!/usr/bin/env bash
# Builds the benchmark from source into the checkout's .bench_build/ and
# runs it there with the caller's arguments. Everything the go toolchain
# writes (build, module and telemetry caches, temporary files, the
# binary) stays inside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
(
	cd "$root/bench"
	export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
	export XDG_CONFIG_HOME="$build/config" GOFLAGS=-mod=mod
	export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
	go build -o "$build/byzshield-bench" .
)
cd "$root"
exec "$build/byzshield-bench" "$@"
