#!/usr/bin/env bash
# Builds the end-to-end replay benchmark from the checkout it is run in
# and runs it. Run from the repository root:
#
#   bash e2ebench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Build outputs, the Go build cache and the WAL of the durable workload
# live under $CARGO_TARGET_DIR (default .bench_build), so the run writes
# nothing outside the checkout.
set -euo pipefail
root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" --workdir "$out/tmp" "$@"
