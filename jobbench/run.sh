#!/usr/bin/env bash
# Builds the job-level benchmark from source and runs it with the given
# arguments, from the root of a checkout of the repository:
#
#   bash jobbench/run.sh --workload cold-suite --seed 1 --seconds 20 --trace 0
#
# The build and everything a run writes stay under $CARGO_TARGET_DIR
# (default .bench_build) in the current directory; nothing is downloaded.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$(pwd)/$out ;; esac
mkdir -p "$out/tmp"
# HOME and XDG_CONFIG_HOME too, so that the go command's own files (its
# env file, local telemetry) land inside the build directory.
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0
(cd "$here" && go build -o "$out/jobbench" .) >&2
exec "$out/jobbench" "$@"
