#!/usr/bin/env bash
# Builds progconvd and the benchmark from this checkout and runs one
# benchmark workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload service-warm --seed 1 --seconds 10 --trace 0
#
# Build outputs and the Go build cache stay under .bench_build/ in the
# checkout (CARGO_TARGET_DIR, when set, names that directory). Traced
# runs write their spans there too.
set -euo pipefail

root=$(pwd)
out="$root/${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOTOOLCHAIN=local GOWORK=off GOFLAGS=

go build -o "$out/progconvd" ./cmd/progconvd
(cd perfbench && go build -o "$out/perfbench" .)

commit=$(git rev-parse --short=12 HEAD 2>/dev/null ||
	find . -name '*.go' -not -path './.bench_build/*' -print0 | sort -z |
	xargs -0 sha256sum | sha256sum | cut -c1-12 | sed 's/^/src-/')

exec "$out/perfbench" --daemon "$out/progconvd" --out "$out" --commit "$commit" "$@"
