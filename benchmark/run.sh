#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs one workload:
#
#   bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#
# Run it from the checkout root. The build, the scratch plan stores and
# every temporary file stay under _build/ there.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "benchmark: needs the full source tree (dune-project and lib/ are missing)" >&2
  exit 2
fi
export XDG_CACHE_HOME="$PWD/_build/bench_cache" DUNE_CACHE=disabled
dune build --root . --display quiet ./benchmark/main.exe >&2
mkdir -p _build/bench_tmp
export TMPDIR="$PWD/_build/bench_tmp"
exec _build/default/benchmark/main.exe run "$@"
