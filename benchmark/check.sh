#!/usr/bin/env bash
# Determinism check: two same-seed --quick runs of every workload must
# agree exactly on their exact fields — the plans the compiler picked,
# the tuner's lowering and costing counts, the simulated latency and the
# seeded arrival schedule. Exits nonzero on any difference.
#
#   bash benchmark/check.sh [seed]
set -euo pipefail
cd "$(dirname "$0")/.."
seed=${1:-7}
out=_build/bench_check
rm -rf "$out"
mkdir -p "$out"
for w in compile_cold serve_pow2 serve_cold verify_full; do
  for side in a b; do
    bash benchmark/run.sh --workload "$w" --seed "$seed" --seconds 2 --trace 0 --quick \
      --out "$out/$side.jsonl" > /dev/null
  done
done
_build/default/benchmark/main.exe compare --exact-only "$out/a.jsonl" "$out/b.jsonl"
echo "benchmark: same-seed runs agree on every exact field"
