#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# given flags. Everything the build writes (binary, Go build cache, Go
# config) stays under .bench_build/ at the root of the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/go-cache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off

# The commit is recorded in the JSON report; a checkout that is not a git
# repository reports "unknown" (the ceiling stops git from looking above it).
commit="$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"

(cd "$root/benchmark" && go build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$out/promisebench" .)

cd "$root"
exec "$out/promisebench" "$@"
