#!/usr/bin/env bash
# Builds faultbench from the checkout it is run in and runs it with the
# given arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload fig5-engine --seed 1 --seconds 20 --trace 0
#
# Every build artefact (the binary, the Go build cache, temporary files,
# the go command's configuration and telemetry) stays under .bench_build/
# in that root, so the build writes nothing outside the checkout and
# reads nothing there but the Go toolchain itself.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off
export GOFLAGS=

go -C "$root/bench" build -o "$out/faultbench" ./faultbench
exec "$out/faultbench" "$@"
