#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with the
# given arguments (--workload, --seed, --seconds, --trace). Run it from the
# repository root. Everything the build and the run write goes under
# .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
# The go command's cache, temporary files and its config directory (where it
# keeps telemetry counters) all stay in the checkout; nothing is fetched.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false GOWORK=off
rev=unknown
if [ -d .git ]; then
	rev=$(git rev-parse HEAD 2>/dev/null || echo unknown)
fi
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" --root "$root" --rev "$rev" "$@"
