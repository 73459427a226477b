#!/usr/bin/env bash
# Build the end-to-end benchmark from source and run one workload.
#
#   bash bench/e2e/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the repository root. Build output goes to stderr; the last
# line of stdout is the run's JSON result. The build cache is off and
# the compiler's temporary files stay under _build, so nothing is
# written outside the repository.
set -euo pipefail
export TMPDIR="$PWD/_build/tmp"
mkdir -p "$TMPDIR"
dune build --root . --cache=disabled --display quiet bench/e2e/main.exe >&2
exec ./_build/default/bench/e2e/main.exe one "$@"
