#!/usr/bin/env bash
# Entry point of the repository benchmark. Run it from the repository root:
#
#   bash bench/run.sh [-workload NAME|all] [-seed N] [-seconds S] [-trace 0|1] ...
#
# It builds bench/ and then runs it against the checkout it was started in.
# Every build artefact, the Go build cache and all temporary files stay
# under .bench_build/ in that checkout. See bench/README.md.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" PPROF_TMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
mkdir -p "$GOTMPDIR"

(cd "$root/bench" && go build -o "$build/bench" .)
exec "$build/bench" -root "$root" "$@"
