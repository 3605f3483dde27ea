#!/usr/bin/env bash
# The benchmark's entry point (BENCHMARK.json's command): builds the
# benchmark binary once into the checkout's build directory, then runs
# it with the arguments given, from the checkout's root. Compile time is
# in no metric. Everything the build writes — binary, Go build cache, the
# toolchain's own per-user files — stays under the build directory.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [ ! -f go.mod ]; then
	echo "benchmark/run.sh: no go.mod in $root: the benchmark is built from the cosmos module's source" >&2
	exit 1
fi
build="$root/.bench_build"
bin="$build/cosmos-benchmark"
if [ ! -x "$bin" ] || [ -n "$(find . -path ./.bench_build -prune -o \( -name '*.go' -o -name go.mod \) -newer "$bin" -print -quit)" ]; then
	# Telemetry off in the build's own config directory: with a fresh one
	# the go command detaches a child of its own to write telemetry
	# reports, and that child outlives this script.
	config="$build/home/.config"
	mkdir -p "$config/go/telemetry"
	echo off >"$config/go/telemetry/mode"
	HOME="$build/home" XDG_CONFIG_HOME="$config" GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOFLAGS=-mod=mod GOTOOLCHAIN=local \
		go build -o "$bin" ./benchmark
fi
exec "$bin" "$@"
