#!/bin/sh
# Benchmark entry point, run from the repository root:
#   sh bench/dmxbench/run.sh --workload W --seed N --seconds S --trace 0|1
# Builds dmxbench from this checkout, then runs it with the given arguments.
# Its scratch files go under .dmxbench/ and the build under _build/.
set -e
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "dmxbench: run from the repository root (no dune-project or lib/ here)" >&2
  exit 2
fi
dune build --root . --cache=disabled --display quiet \
  bench/dmxbench/dmxbench.exe 1>&2
exec ./_build/default/bench/dmxbench/dmxbench.exe "$@"
