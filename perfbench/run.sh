#!/usr/bin/env bash
# run.sh — builds the benchmark from source and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash perfbench/run.sh compare <parent.jsonl> <change.jsonl>
#
# Everything the build and the run write (Go build cache, binary,
# records, traces, profiles) stays under .bench_build in the current
# directory, and nothing is fetched: the benchmark module needs only
# the repository module next to it and the standard library.
set -eu

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ] || [ ! -f "$root/perfbench/go.mod" ]; then
    echo "perfbench: run from the repository root (go.mod, internal/ and perfbench/ not found)" >&2
    exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/gocache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
