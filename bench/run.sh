#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every flag is passed through, for example:
#
#   bash bench/run.sh -workload serve -seed 1 -seconds 10 -trace 0
#
# Build output, the Go build cache and the go command's own state stay
# inside the checkout, under $CARGO_TARGET_DIR when it is set and
# .bench_build otherwise. The toolchain is never downloaded and no module
# is fetched.
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/tmp"

export GOCACHE="$out/go-cache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" PPROF_TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=

go -C bench build -o "$out/khsim-bench" .
exec "$out/khsim-bench" "$@"
