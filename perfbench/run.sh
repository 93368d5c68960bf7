#!/usr/bin/env bash
# Builds perfbench from the sources of this checkout and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload fan --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the repository. Build outputs, the Go build
# cache, journals and trace files all stay under $CARGO_TARGET_DIR
# (default .bench_build), inside the checkout.
set -euo pipefail

root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out"
export GOCACHE="$out/gocache"
export GOTMPDIR="$out"
export GOFLAGS=-buildvcs=false

(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" --workdir "$out/run" "$@"
