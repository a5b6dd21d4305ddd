#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs one workload:
#
#   bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 25 --trace 0
#
# Run it from the checkout root. Everything the build and the run
# leave behind (Go build cache, binaries, emitted programs, traces,
# results) goes under .bench_build, so nothing is written outside the
# checkout. The benchmark is its own Go module that imports the
# repository through a relative replace, so it fails to build anywhere
# but a checkout of the repository.
set -euo pipefail

root="$(pwd)"
out="${root}/.bench_build"
mkdir -p "${out}/gocache" "${out}/tmp" "${out}/bin"

# The go command keeps its config and telemetry under the user config
# directory; point that into the checkout too.
export XDG_CONFIG_HOME="${out}/config"
export GOCACHE="${out}/gocache"
export GOTMPDIR="${out}/tmp"
export GOPATH="${out}/gopath"
export GOFLAGS=-mod=readonly
export GOTOOLCHAIN=local
export GOPROXY=off
export GOSUMDB=off
export GOWORK=off
export GO111MODULE=on

go -C perfbench build -o "${out}/bin/perfbench" .
exec "${out}/bin/perfbench" "$@"
