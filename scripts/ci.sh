#!/bin/sh
# CI entry point: build and run the test suite, then the gates the unit
# tests cannot express — the compile-work count of a serial compile that
# reuses tuning decisions, a bounded differential verification pass (fuzz +
# seeded-defect corpus, fixed seed so any failure reproduces exactly), the
# profile, serve and stress smokes, same-seed replay of the chaos, pow2,
# overload, poison and fleet storms, the batch and shard floors, the
# warm-store cold-start and corruption gates, and the canonical
# benchmark's same-seed exact fields (which include the tuner's picks).
set -eu

cd "$(dirname "$0")/.."

# extract_objects FILE KEY...: the flat JSON object under each KEY, one a line.
extract_objects() {
    f=$1
    shift
    for k in "$@"; do grep -o "\"$k\":{[^}]*}" "$f"; done
}

# same_seed_gate LABEL "KEY..." CMD...: run CMD twice; each run gates
# itself and must exit 0. Then the objects under each KEY must agree
# byte-for-byte across the two runs: the replay guarantee the seeded
# fault model exists for. The agreed objects are left in $gate_objects.
same_seed_gate() {
    label=$1 keys=$2
    shift 2
    run1=$(mktemp) && run2=$(mktemp)
    for f in "$run1" "$run2"; do
        "$@" > "$f" || {
            echo "ci: $label failed its gates" >&2; cat "$f" >&2; exit 1; }
    done
    # $keys is split on purpose: one argument per key.
    if [ "$(extract_objects "$run1" $keys)" != "$(extract_objects "$run2" $keys)" ]; then
        echo "ci: $label not deterministic across same-seed runs" >&2
        echo "--- run 1 ---" >&2; extract_objects "$run1" $keys >&2
        echo "--- run 2 ---" >&2; extract_objects "$run2" $keys >&2
        exit 1
    fi
    gate_objects=$(extract_objects "$run1" $keys)
    rm -f "$run1" "$run2"
}

dune build
dune runtest

# Compile-work gate: a serial Q/K/V projection compile tunes the three
# projections' shared structure once, so it must reuse decisions, and
# what it costs, prunes and reuses must add up to the 4 247 candidates a
# compile that re-tunes every sub-graph costs and prunes (the sum is
# exact at any job count). Fails if reuse silently turns off or drops
# candidates.
work=$(SPACEFUSION_JOBS=1 dune exec bin/spacefusion_cli.exe -- compile -w qkv -m 64 -n 256)
count() { echo "$work" | grep -o "$1=[0-9]*" | cut -d= -f2; }
costed=$(count cfgs) pruned=$(count early_quit) reused=$(count reused)
[ -n "$costed" ] && [ -n "$pruned" ] && [ -n "$reused" ] && [ "$reused" -gt 0 ] \
    && [ $((costed + pruned + reused)) -eq 4247 ] || {
    echo "ci: qkv compile work: cfgs=${costed:-?} early_quit=${pruned:-?} reused=${reused:-?}" \
        "(want reused > 0 and a sum of 4247)" >&2
    exit 1; }

# Differential oracle gate: exits nonzero if any interp/Full/Analytic
# divergence is found or a seeded defect goes undetected.
dune exec bench/main.exe -- --quick --only verify > /dev/null

# Observability smoke: a profiled run must emit JSON that parses and
# contains every pipeline phase span (--check makes the CLI re-validate
# its own output and exit nonzero otherwise).
dune exec bin/spacefusion_cli.exe -- profile bert --arch ampere --batch 1 --seq 64 --check > /dev/null

# Serving smoke: a short paced run must emit a JSON load report whose
# accounting conserves (the CLI exits nonzero on a violation or on any
# failed request), and the report itself must declare zero failures.
serve_out=$(mktemp)
dune exec bin/spacefusion_cli.exe -- serve --duration 2 --rps 100 --workers 2 > "$serve_out"
grep -q '"conserved":true' "$serve_out" || {
    echo "ci: serve report not conserved" >&2; cat "$serve_out" >&2; exit 1; }
grep -q '"failed":0' "$serve_out" || {
    echo "ci: serve report has failures" >&2; cat "$serve_out" >&2; exit 1; }
# One first run per plan: this smoke injects no faults and sets no
# deadlines, so every plan the cache compiles runs functionally exactly
# once, inside the cache's single flight, and every other request takes
# the analytic fast path.
misses=$(grep -o '"plan_cache":{[^}]*}' "$serve_out" | grep -o '"misses":[0-9]*' | cut -d: -f2)
execs=$(grep -o '"run":{[^}]*}' "$serve_out" | grep -o '"functional_execs":[0-9]*' | cut -d: -f2)
[ -n "$misses" ] && [ "$misses" = "$execs" ] || {
    echo "ci: serve smoke ran ${execs:-?} functional executions for ${misses:-?} plan-cache misses" >&2
    cat "$serve_out" >&2; exit 1; }
# One Analytic walk per plan: a plan memoises its walk the first time it
# runs analytically, so warm hits read the memo and the walks never
# outnumber the plans the cache compiled (this smoke has no store, so
# the cache compiled every plan it serves).
walks=$(grep -o '"run":{[^}]*}' "$serve_out" | grep -o '"analytic_walks":[0-9]*' | cut -d: -f2)
[ -n "$walks" ] && [ "$walks" -le "$misses" ] || {
    echo "ci: serve smoke walked plans ${walks:-?} times for ${misses:-?} plan-cache misses" >&2
    cat "$serve_out" >&2; exit 1; }
rm -f "$serve_out"

# Serving soak: the seeded stress test must pass three consecutive runs
# (same fixed seed each time, so a scheduling-dependent failure that
# slips through once still has two more chances to surface — and any
# failure names the seed for replay).
for i in 1 2 3; do
    SPACEFUSION_STRESS_SEED=42 dune exec test/test_serve_stress.exe > /dev/null 2>&1 || {
        echo "ci: serve stress soak failed on run $i (seed 42)" >&2; exit 1; }
done

# Chaos gate: a seeded fault storm must keep its accounting conserved,
# hold goodput above the floor, and demonstrate at least one breaker
# open -> half-open -> closed recovery (the CLI exits nonzero on any of
# those), and two same-seed runs must report byte-identical terminal
# outcome and injected-fault counts.
same_seed_gate "chaos soak" "outcomes faults" \
    dune exec bin/spacefusion_cli.exe -- chaos -n 300 --rate 0.01 --seed 11 \
    --require-recovery --check

# Batching determinism gate: two same-seed chaos storms under pow2 shape
# bucketing (workers=1 and a backlog staged before the worker starts, so
# batch formation is a pure function of the seed) must agree byte-for-byte
# on terminal outcomes and injected faults — batch formation must not make
# replay schedule-dependent. A storm that batches nothing would pass that
# comparison vacuously, so it must also report batched members.
same_seed_gate "pow2 chaos storm" "outcomes faults" \
    dune exec bin/spacefusion_cli.exe -- chaos -n 300 --rate 0.01 --seed 11 \
    --workers 1 --bucket pow2 --check
case "$gate_objects" in
*'"batched":0,'*)
    echo "ci: pow2 chaos storm batched nothing; its determinism gate is vacuous" >&2
    echo "$gate_objects" >&2; exit 1 ;;
esac

# Batching goodput gate: the batch bench storms 10x the exact baseline's
# request count through pow2 shape classes and enforces its own floors
# in-process (>= 5x the exact-bucketing baseline's throughput, warm-path
# share >= 0.5, zero guard-miss compiles and zero functional executions
# after the class warm-up) and exits nonzero on any of them.
dune exec bench/main.exe -- --quick --only batch > /dev/null

# Sharding gate: the multi-device bench enforces its own floors in-process
# (>= 1.5x simulated latency at a 4-device node on the compute-bound
# large-batch case, fleet soak conserved with goodput >= 0.9 after at
# least one injected device death) and exits nonzero on any of them.
dune exec bench/main.exe -- --quick --only shard > /dev/null

# Overload gate: the overload bench stages a seeded 5x-capacity poison
# storm under a frozen clock and enforces its own floors in-process
# (shed > 0, goodput >= 0.8 over non-shed submissions, zero non-poisoned
# failures, bisection isolates exactly the poisoned member, the memory
# budget trips and halves the batch cap, quarantine kicks in after the
# offense threshold). Two runs must agree byte-for-byte on the storm's
# outcome (including shed/quarantined counts) and fault objects — the
# overload response must replay exactly.
same_seed_gate "overload storm" "outcomes faults" \
    dune exec bench/main.exe -- --quick --only overload

# Poison determinism gate: a same-seed chaos storm with per-request
# poison faults must replay byte-identically — poison draws are keyed to
# the request stream, so the poisoned set is a pure function of the seed.
same_seed_gate "poison chaos storm" "outcomes faults" \
    dune exec bin/spacefusion_cli.exe -- chaos -n 300 --rate 0.01 --poison 0.01 \
    --seed 11 --workers 1 --goodput-floor 0.8 --check

# Fleet determinism gate: same-seed chaos storms against a 4-device fleet
# must agree byte-for-byte on terminal outcomes, injected faults AND the
# fleet snapshot (which devices died, per-device served counts, reroutes).
# workers=1 keeps placement order a pure function of the seed. Seed 9
# kills a device; a storm where none dies would replay no death or
# reroute, so it fails the gate.
same_seed_gate "fleet chaos soak" "outcomes faults fleet" \
    dune exec bin/spacefusion_cli.exe -- chaos -n 200 --rate 0.01 --seed 9 \
    --devices 4 --workers 1 --check
case "$gate_objects" in
*'"dead":[]'*)
    echo "ci: fleet chaos storm killed no device; its determinism gate is vacuous" >&2
    echo "$gate_objects" >&2; exit 1 ;;
esac

# Plan-store gate: `warm` populates the on-disk store and proves in-process
# that a simulated restart compiles nothing; then a genuinely separate serve
# process backed by the same store must report zero cache misses and zero
# functional executions — the zero-compile cold start the store exists for.
store_dir=$(mktemp -d) && warm_out=$(mktemp) && serve_out=$(mktemp)
dune exec bin/spacefusion_cli.exe -- warm --store "$store_dir" > "$warm_out" || {
    echo "ci: warm failed to populate the plan store" >&2; cat "$warm_out" >&2; exit 1; }
dune exec bin/spacefusion_cli.exe -- serve --duration 1 --rps 100 --workers 2 \
    --store "$store_dir" --telemetry "$store_dir/telemetry" > "$serve_out"
grep -q '"misses":0' "$serve_out" || {
    echo "ci: store-backed serve restart still compiled (cache misses)" >&2
    cat "$serve_out" >&2; exit 1; }
grep -q '"functional_execs":0' "$serve_out" || {
    echo "ci: store-backed serve restart re-entered the functional interpreter" >&2
    cat "$serve_out" >&2; exit 1; }

# Telemetry query smoke: the serve run above recorded one row; the query
# surface must see exactly that run.
query_out=$(mktemp)
dune exec bin/spacefusion_cli.exe -- query --dir "$store_dir/telemetry" --kind serve \
    --select serve.done > "$query_out"
grep -q '"runs":1' "$query_out" || {
    echo "ci: telemetry query did not see the recorded serve run" >&2
    cat "$query_out" >&2; exit 1; }
rm -f "$serve_out" "$query_out"

# Corruption-injection smoke: chop bytes off one stored plan; reopening the
# store must quarantine exactly that entry and name it — never crash — and
# the remaining entries must still warm a restart (the chopped one simply
# recompiles and is written back).
plan_file=$(ls "$store_dir"/*.plan | head -n 1)
truncate -s -2 "$plan_file"
dune exec bin/spacefusion_cli.exe -- warm --store "$store_dir" > "$warm_out" || {
    echo "ci: warm did not recover from a corrupted store entry" >&2
    cat "$warm_out" >&2; exit 1; }
grep -q '"quarantined":1' "$warm_out" || {
    echo "ci: corrupted entry was not quarantined" >&2; cat "$warm_out" >&2; exit 1; }
rm -rf "$store_dir" "$warm_out"

# Benchmark determinism gate: two same-seed runs of every benchmark
# workload must agree on each exact field — picks_md5, sim_latency_ms,
# kernels, cfgs_considered_per_trial (exits nonzero on any difference).
bash benchmark/check.sh

echo "ci: OK (build, tests, compile-work reuse gate, verify fuzz + defect corpus, profile spans, serve smoke + 3x soak, deterministic chaos + pow2-batching + overload + poison + fleet gates, batch goodput floors, shard floors, warm-store cold-start + corruption gates, same-seed benchmark exact fields identical)"
