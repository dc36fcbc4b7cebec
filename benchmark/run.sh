#!/usr/bin/env bash
# Build the benchmark from source and run one workload.  Run it from the
# root of a checkout:
#
#   bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Build output goes to stderr, so the last line of stdout is the result.
# Outside a full checkout the build fails and so does this script.
set -euo pipefail
# Keep dune's shared cache out of the way: build products stay in _build.
export DUNE_CACHE=disabled
dune build --root . --display quiet ./benchmark/run.exe 1>&2
exec ./_build/default/benchmark/run.exe "$@"
