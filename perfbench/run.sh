#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it, keeping
# every build and run artefact under .bench_build/. Run from the
# repository root, for example:
#   bash perfbench/run.sh --workload lib-dense --seed 1 --seconds 20 --trace 0
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
# A checkout without git history has no commit to stamp; a digest of the
# Go sources identifies the code instead.
PERFBENCH_SOURCE_SHA256=$(find . -path ./.bench_build -prune -o -type f \( -name '*.go' -o -name go.mod \) -print |
	LC_ALL=C sort | xargs sha256sum | sha256sum | cut -d' ' -f1)
export PERFBENCH_SOURCE_SHA256
go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"
