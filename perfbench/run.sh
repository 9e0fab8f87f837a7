#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload portal_xmi --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Build outputs (binary, Go build cache)
# go to $CARGO_TARGET_DIR when set, else .bench_build, both under the
# current directory; the Go toolchain's caches and config are pointed
# there too, so a run writes nothing outside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"

commit=unknown
if c=$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null); then
	commit=$c
fi

(
	cd "$(dirname "$0")"
	export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOPATH=$out/gopath \
		XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOPROXY=off
	go build -o "$out/perfbench" . >&2
)
exec "$out/perfbench" -commit "$commit" "$@"
