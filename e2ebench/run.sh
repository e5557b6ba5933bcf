#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout's sources and runs it.
# Run from the repository root:
#
#   bash e2ebench/run.sh --workload scan-scale --seed 1 --seconds 20 --trace 0
#
# Build products, the Go build cache and trace files stay under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/systolic" ]]; then
	echo "e2ebench: run from the repository root (no go.mod or systolic/ here)" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"

export GOCACHE="$out/go-cache" GOPATH="$out/gopath" GOTMPDIR="$out"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOENV=off GOTELEMETRY=off
mkdir -p "$GOPATH" "$XDG_CONFIG_HOME" "$XDG_CACHE_HOME"

go build -C "$root/e2ebench" -o "$out/e2ebench" .
exec "$out/e2ebench" --workdir "$out" "$@"
