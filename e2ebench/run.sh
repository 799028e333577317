#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# arguments. Run from the root of the repository:
#
#   bash e2ebench/run.sh --workload fig6-plan --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and every file the benchmark writes stay
# under $CARGO_TARGET_DIR (default .bench_build) in the current directory.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$PWD/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/config" "$out/gomodcache"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
(cd "$here" && go build -buildvcs=false -o "$out/e2ebench" .)
export E2EBENCH_OUT="$out"
exec "$out/e2ebench" "$@"
