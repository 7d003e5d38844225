#!/usr/bin/env bash
# Builds advbench from the checkout it is run in and runs it with the given
# arguments. Run from the repository root:
#
#   bash cmd/advbench/run.sh --workload loop-classical --seed 1 --seconds 25 --trace 0
#
# The Go build cache, temporary build files, trained-model artifacts and
# the binary all stay under .bench_build/ in the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/advbench ]]; then
	echo "advbench: run from the repository root (no go.mod here)" >&2
	exit 2
fi
root=$(pwd)
mkdir -p .bench_build/tmp
export GOCACHE="$root/.bench_build/gocache"
export GOTMPDIR="$root/.bench_build/tmp"
export GOPATH="$root/.bench_build/gopath"
export XDG_CONFIG_HOME="$root/.bench_build/config"
export GOENV=off
export GOTOOLCHAIN=local
go build -o .bench_build/advbench ./cmd/advbench
exec .bench_build/advbench "$@"
