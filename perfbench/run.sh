#!/usr/bin/env bash
# Builds the repository benchmark from this checkout and runs it:
#
#   bash perfbench/run.sh --workload fleet --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The binary, the Go build cache and every
# temporary file live under .bench_build/, so a run writes nothing outside
# the checkout. Any failure to build (for example a checkout that holds only
# the benchmark) exits non-zero before anything is measured.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod, internal/ and perfbench/ expected)" >&2
	exit 2
fi
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
