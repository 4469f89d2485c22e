#!/usr/bin/env bash
# Build the end-to-end benchmark from source and run it. Run from the root
# of the repository; every argument goes to e2e.exe (see README.md here).
# The build, temporary files and default output all stay under
# .bench_build/ at the root, and the shared dune cache is not used.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export TMPDIR="$build/tmp"
export DUNE_CACHE=disabled

# Build output goes to stderr so standard output carries only results.
dune build --root "$root" --build-dir "$build/dune" ./bench/e2e/e2e.exe 1>&2
exec "$build/dune/default/bench/e2e/e2e.exe" "$@"
