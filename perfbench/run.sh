#!/usr/bin/env bash
# Builds the benchmark and the reproduce command from source into
# .bench_build/ (build cache included, so nothing is written outside the
# checkout) and runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload reproduce|sweep|serve|mapreduce \
#       --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Compilation happens here, never inside
# the benchmark's timed set-up.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
	GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= \
	GOWORK=off GOENV=off CGO_ENABLED=0

go build -o "$out/reproduce" ./cmd/reproduce
(cd perfbench && go build -o "$out/perfbench" .)
# Not exec: the benchmark reads its children's peak RSS and CPU, and an
# exec'd process would inherit the compiler's.
"$out/perfbench" -root "$root" -bin "$out" "$@"
