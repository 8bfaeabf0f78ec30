#!/usr/bin/env bash
# Builds the replay benchmark from this checkout's sources into
# .bench_build/ at the checkout root and runs it with the given flags, e.g.
#   bash replaybench/run.sh --workload ul-64x16 --seed 1 --seconds 20 --trace 0
# The Go build cache and temporary files stay under .bench_build/ too.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/replaybench" && go build -o "$out/replaybench" .) >&2
cd "$root"
exec "$out/replaybench" "$@"
