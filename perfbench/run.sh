#!/usr/bin/env bash
# Builds the hydra end-to-end benchmark from this checkout's sources and runs
# it. Every build product, Go cache and temp file stays under .bench_build/ at
# the checkout root.
#
#   bash perfbench/run.sh --workload exact-walk --seed 1 --seconds 20 --trace 0
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [ ! -f go.mod ] || [ ! -d internal/server ]; then
	echo "perfbench: $root is not a hydra checkout (go.mod or internal/server missing)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off

# The build runs as a background job in a process group of its own, so a
# SIGINT/SIGTERM that arrives during it reaches go build and every compiler
# process it started, and the script waits until the whole group is gone.
set -m
(cd perfbench && exec go build -trimpath -o "$out/perfbench" .) &
build=$!
stop_build() {
	kill -TERM -- "-$build" 2>/dev/null || true
	wait "$build" 2>/dev/null || true
	while kill -0 -- "-$build" 2>/dev/null; do sleep 0.1; done
	exit 143
}
trap stop_build INT TERM
wait "$build"
trap - INT TERM
set +m

exec "$out/perfbench" "$@"
