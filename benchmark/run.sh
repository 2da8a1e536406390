#!/usr/bin/env bash
# Builds the benchmark inside its own directory and runs it from the caller's
# working directory. The binary, Go's build and module caches and its scratch
# files all go under benchmark/.build, so nothing is written outside the
# checkout.
set -euo pipefail
dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export GOCACHE="$dir/.build/gocache" GOMODCACHE="$dir/.build/gomod" GOTOOLCHAIN=local
# shard.Run binds a unix socket under TMPDIR, and a socket path holds about a
# hundred bytes: keep TMPDIR inside the checkout only where that fits.
tmp="$dir/.build/tmp"
if [ "${#tmp}" -le 60 ]; then
	mkdir -p "$tmp"
	export TMPDIR="$tmp"
fi
go build -C "$dir" -o .build/bench .
exec "$dir/.build/bench" "$@"
