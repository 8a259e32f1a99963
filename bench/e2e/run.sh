#!/bin/sh
# Benchmark entry point, run from the root of a source checkout:
#
#   sh bench/e2e/run.sh --workload W --seed N --seconds T --trace 0|1
#
# Builds the benchmark (and the library under it) from the checkout's
# sources, then runs one workload; the last line of standard output is
# the JSON result.  Build output goes to standard error.  Dune's shared
# cache lives outside the checkout, so it is disabled: every build
# artefact stays under _build/.  Traced runs also leave their record
# under bench/e2e/out/.
set -eu
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)"
dune build --root . --cache=disabled ./bench/e2e/bench_e2e.exe 1>&2
mkdir -p bench/e2e/out
exec ./_build/default/bench/e2e/bench_e2e.exe run --trace-dir bench/e2e/out "$@"
