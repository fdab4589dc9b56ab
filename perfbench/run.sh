#!/usr/bin/env bash
# Builds the benchmark from source, then runs it with the given
# arguments (see perfbench/README.md):
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the repository root.  The build goes to $CARGO_TARGET_DIR
# (default .bench_build) with dune's shared cache off, so nothing is
# written outside the checkout.  Build output goes to stderr, keeping
# the benchmark's result the last line of stdout.
set -euo pipefail
cd "$(dirname "$0")/.."
build_dir="${CARGO_TARGET_DIR:-.bench_build}"
dune build --root . --build-dir "$build_dir" --cache=disabled \
  --display=quiet ./perfbench/suite.exe >&2
exec "$build_dir/default/perfbench/suite.exe" "$@"
