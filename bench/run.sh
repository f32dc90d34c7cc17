#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ of the checkout it is run from and
# runs it with the arguments given. Everything Go writes (build cache,
# temporary files, the binary) stays under .bench_build/, and so does
# everything the benchmark writes, so a run touches nothing outside the
# checkout. The first build in a checkout compiles the standard library too.
#
#   bash bench/run.sh --workload rt-large --seed 1 --seconds 15 --trace 0
set -euo pipefail

root=$PWD
src=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=$root/.bench_build
mkdir -p "$out/tmp"

export GOCACHE=$out/gocache GOTMPDIR=$out/tmp
# The benchmark imports only the standard library and this repository.
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off

go build -C "$src" -o "$out/knembench" .
exec "$out/knembench" "$@"
