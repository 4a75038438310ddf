#!/usr/bin/env bash
# Builds the benchmark command from source and runs it with the given
# flags. Run it from the repository root:
#
#   bash benchmark/run.sh -workload serve-warm -seed 1 -seconds 20 -trace 0
#
# Everything the build and the run write (binary, Go build cache, temp
# files, the serving workloads' trace stores) stays under the build
# directory: $CARGO_TARGET_DIR when set, else .bench_build.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$PWD/$out ;;
esac
mkdir -p "$out/tmp"

export GOCACHE=$out/gocache GOTMPDIR=$out/tmp TMPDIR=$out/tmp
# Build from the local module only: no module proxy, no toolchain switch.
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=

go build -C "$here" -o "$out/ironhide-bench" .
exec "$out/ironhide-bench" "$@"
