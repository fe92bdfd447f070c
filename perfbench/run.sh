#!/usr/bin/env bash
# Builds the benchmark and the CLIs it drives from this checkout's sources,
# then runs it with the given arguments:
#
#   bash perfbench/run.sh --workload seed-bulk --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Everything it builds, caches or
# generates lives under .bench_build/ in that root.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$build/bin/" . \
	casa/cmd/casa-gen casa/cmd/casa-index casa/cmd/casa-smem casa/cmd/casa-align)

exec "$build/bin/perfbench" -root "$root" "$@"
