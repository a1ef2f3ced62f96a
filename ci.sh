#!/usr/bin/env bash
# Local CI gate: formatting, lints, docs, tests, static verification, and
# a determinism check on the paper-reproduction sweep.
# Run from the repository root before pushing.
set -euo pipefail

cargo fmt --all --check

# One generator module and no property-test stand-in: no manifest may
# name `proptest`, and the xorshift* multiplier and the SplitMix64
# finalizer constant appear in no Rust file but `pim_common::rng` (and
# the `rand` stand-in, until its three users move onto the module).
if grep -rlw --include=Cargo.toml --exclude-dir=target --exclude-dir=.bench_build \
    proptest .; then
    echo "ci: the Cargo.toml files above name proptest" >&2
    exit 1
fi
stray=$(grep -rliE --include='*.rs' --exclude-dir=target --exclude-dir=.bench_build \
    '2545_?F491_?4F6C_?DD1D|94D0_?49BB_?1331_?11EB' . |
    grep -v -e '^\./crates/pim-common/src/rng\.rs$' -e '^\./vendor/rand/' || true)
if [ -n "$stray" ]; then
    echo "ci: generator constants outside pim_common::rng:" $stray >&2
    exit 1
fi
# No test-only public functions or constants (ROADMAP item 3(e)). A
# file's production text is everything before its `#[cfg(test)] mod ... {`
# block, less its `//` comment lines (docs and doc examples included); a
# file that is itself a `#[cfg(test)] mod name;` module, or an integration
# test under `tests/` or `crates/*/tests/`, has none. A hit is a `pub fn`,
# `pub const fn` or `pub const` that no other file's production text names
# and that its own file's production text names only at its definition:
# only tests reach it. Delete it with the tests that exist only for it, or
# allowlist it here with a one-line reason.
scan_allow='
hit_rate_for_stream     pim_mem::bank, the memory referee item 9 rules on
hottest_bank            pim_mem::controller, the memory referee item 9 rules on
precharge               pim_mem::bank, the memory referee item 9 rules on
replay_pattern          pim_mem::controller, the memory referee item 9 rules on
conv2d_gemm             the independent check of direct convolution
external_bandwidth      the host link the internal-bandwidth premise is checked against
invocation_counts       the op census the model structure tests count with
is_cnn                  the CNN/non-CNN split the Fig. 16 case tests check
quarantine_ff_at_start  builds the hand-made fault plans of the engine and verify tests
with_permanent          builds the hand-made fault plans of the engine and verify tests
from_seed               pim_graph::gen, the seeded DAGs the property and differential suites draw
random_dag              pim_graph::gen, the seeded DAGs the property and differential suites draw
custom                  CpuDevice, the one non-Xeon host for EngineConfig::host; the memo-key tests use it
cycle_bound             the static issue-cycle bound the ISA property test checks the interpreter against
disassemble             the program text the ISA golden pins and failing ISA properties print
supports_recursive_kernel  the Fig. 4 recursive-kernel predicate the binary-generation tests check
cross_check_many        the partitioned-report referee the engine property test checks a split run with
'
rs_files=$(find crates src tests examples perfbench/src -name '*.rs' -not -path '*/target/*' | sort)
test_mods=$(for f in $rs_files; do
    awk -v f="$f" 'prev ~ /^#\[cfg\(test\)\]/ && /^mod [A-Za-z_]+;/ {
            dir = f; sub(/\/(mod|lib|main)\.rs$/, "", dir); sub(/\.rs$/, "", dir)
            name = $2; sub(/;$/, "", name); print dir "/" name ".rs" }
        { prev = $0 }' "$f"
done)
declare -A prod
for f in $rs_files; do
    grep -qxF "$f" <<<"$test_mods" && continue
    case $f in tests/* | crates/*/tests/*) continue ;; esac
    prod[$f]=$(awk '/^mod [A-Za-z_]+ \{/ && prev ~ /^#\[cfg\(test\)\]/ { exit }
        { prev = $0 } !/^[[:space:]]*\/\// { print }' "$f")
done
# Identifiers named by exactly one file's production text.
named_once=$(for f in "${!prod[@]}"; do grep -ow '[A-Za-z_][A-Za-z0-9_]*' <<<"${prod[$f]}" | sort -u; done |
    sort | uniq -c | awk '$1 == 1 { print $2 }')
test_only=
for f in $rs_files; do
    [ -n "${prod[$f]+set}" ] || continue
    body=${prod[$f]}
    for name in $(sed -n -e 's/^ *pub \(const \)\{0,1\}fn \([A-Za-z_][A-Za-z0-9_]*\).*/\2/p' \
        -e 's/^ *pub const \([A-Za-z_][A-Za-z0-9_]*\) *:.*/\1/p' <<<"$body"); do
        if grep -qx "$name" <<<"$named_once" &&
            [ "$(grep -ow "$name" <<<"$body" | wc -l)" -eq 1 ] &&
            ! awk -v n="$name" '$1 == n { found = 1 } END { exit !found }' <<<"$scan_allow"; then
            test_only="$test_only $f:$name"
        fi
    done
done
if [ -n "$test_only" ]; then
    echo "ci: public functions only tests reach:$test_only" >&2
    exit 1
fi
cargo clippy --workspace --all-targets -- -D warnings

# Pedantic clippy with a curated allowlist. Every `-A` below is a
# deliberate, whole-workspace decision — anything not listed is a hard
# error, so new pedantic findings fail CI until fixed or justified here.
#   must_use_candidate / return_self_not_must_use: builder-style APIs
#     everywhere; annotating every getter adds noise, not safety.
#   cast_*: the simulator converts between tick counts, indices, and
#     f64 cost metrics by design; casts are reviewed at call sites.
#   float_cmp: determinism tests compare exact bit-identical floats on
#     purpose (same inputs, same order, same result).
#   doc_markdown: paper terms (AlexNet, HashMap, PIM) trip the
#     backtick heuristic constantly.
#   many_single_char_names / similar_names: math-heavy kernel code
#     follows the paper's notation (n, c, h, w, oh, ow).
#   missing_panics_doc / missing_errors_doc: the workspace documents
#     fallible APIs where the failure is interesting; blanket sections
#     on internal helpers are boilerplate.
#   too_many_lines / items_after_statements / single_match_else /
#     match_same_arms / module_name_repetitions: style calls where the
#     local idiom is already consistent.
#   struct_excessive_bools: EngineConfig mirrors the paper's ablation
#     switches (RC on/off, OP on/off, ...).
#   iter_not_returning_iterator: `Graph::ops()` returns a slice by
#     API contract.
CLIPPY_PEDANTIC_ALLOW=(
    -A clippy::must_use_candidate
    -A clippy::return_self_not_must_use
    -A clippy::cast_precision_loss
    -A clippy::cast_sign_loss
    -A clippy::cast_possible_truncation
    -A clippy::cast_possible_wrap
    -A clippy::float_cmp
    -A clippy::doc_markdown
    -A clippy::many_single_char_names
    -A clippy::similar_names
    -A clippy::missing_panics_doc
    -A clippy::missing_errors_doc
    -A clippy::too_many_lines
    -A clippy::items_after_statements
    -A clippy::single_match_else
    -A clippy::match_same_arms
    -A clippy::struct_excessive_bools
    -A clippy::iter_not_returning_iterator
    -A clippy::module_name_repetitions
)
cargo clippy --workspace --all-targets -- \
    -D warnings -W clippy::pedantic "${CLIPPY_PEDANTIC_ALLOW[@]}"

RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet
cargo test -q
cargo test --workspace -q

# The engine's unit tests again under release codegen, the build the
# benchmark times: the packed ready-set keys and the sorted class and
# event queues must hold with optimizations and without overflow checks
# too.
cargo test --release -q -p pim-runtime --lib engine::

# The benchmark harness (its own workspace) builds against crates/ by
# path: removing an Engine or profiler item it uses must fail here, not
# first when the benchmark runs. `--locked` makes a change to its
# dependency graph fail here instead of rewriting perfbench/Cargo.lock.
cargo test --release -q --locked --manifest-path perfbench/Cargo.toml

# Seeded fault suite in the serial mode (the workspace run above uses
# every core): engine recovery, the none-plan differential guard, and the
# fault-aware legality checker must not depend on the worker count.
PIM_RUN_THREADS=1 cargo test -q -p pim-runtime fault
PIM_RUN_THREADS=1 cargo test -q -p pim-sim --test fault_differential

# Static checker: every model graph, binary set, schedule, and report must
# come back with zero error-severity diagnostics (exit code gates).
cargo run --release -q -p pim-verify -- --all-models --format json > /dev/null

# Determinism: the full reproduction sweep must be byte-identical across
# runs (the simulator owns all its randomness).
# Every scratch file below lives in one directory, removed on exit.
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
repro_a=$tmp/repro_a repro_b=$tmp/repro_b trace_a=$tmp/trace_a trace_b=$tmp/trace_b
cargo run --release -q -p pim-sim --bin repro -- all > "$repro_a"
cargo run --release -q -p pim-sim --bin repro -- all > "$repro_b"
diff "$repro_a" "$repro_b"

# Pinned bytes, not just run-to-run equality: the sweep's digest must be
# the `repro-all` reference digest the benchmark harness checks against.
repro_md5=$(python3 -c 'import json, sys
print(json.load(open(sys.argv[1]))["workloads"]["repro-all"]["references"]["any"]["digest"])' \
    perfbench/expected.json)
echo "$repro_md5  $repro_a" | md5sum --check --quiet

# Pinned faulted and served bytes, checked against perfbench/expected.json.
# The fault-grid workload runs the seven models on all six presets at 3
# steps under seeded fault plans and checks every cell's report digest plus
# the event, stall and fault counts. The serve-mix workload replays a
# 3000-job trace through the daemon and checks the response stream's
# digest and the computed/cache-hit counts, byte-verifying every 16th job
# against a direct Engine::execute. A mismatch prints `"correct": false`.
for workload in fault-grid serve-mix; do
    for seed in 1 2; do
        result=$(python3 perfbench/run.py --workload "$workload" --seed "$seed" \
            --seconds 1 --trace 0 | tail -n 1)
        python3 -c 'import json, sys
r = json.loads(sys.argv[2])
if r["correct"] is not True or r["failed"] != 0:
    sys.exit(sys.argv[1] + " differs from perfbench/expected.json: " + sys.argv[2])' \
            "$workload" "$result"
    done
done

# Thread matrix: worker count must be unobservable in every output.
# The differential suite and the full reproduction sweep are re-run with
# the claim-next fan-out pinned to 1, 2, 3 and 4 workers (PIM_RUN_THREADS,
# see engine DESIGN.md §4.9); the sweep output must stay byte-identical
# to the unpinned runs above. The odd count is where the order in which
# workers claim the sweep's sections differs most from an even split.
# Fig. 16's two-phase fan-out must equal its one-case runs, and the fan-out
# helpers their serial map, at every count too. So must a warm engine's
# runs equal a fresh engine's, with partitions and two serve workers
# sharing one engine's table of uncontended plans.
for threads in 1 2 3 4; do
    PIM_RUN_THREADS=$threads cargo test -q -p pim-sim --test differential
    PIM_RUN_THREADS=$threads cargo test -q -p pim-sim --lib fig16
    PIM_RUN_THREADS=$threads cargo test -q -p pim-runtime --lib par::
    PIM_RUN_THREADS=$threads cargo test -q -p pim-runtime --test plan_table
    PIM_RUN_THREADS=$threads cargo test -q -p pim-sim --test serve_determinism two_workers
    threads_out=$tmp/threads_$threads
    PIM_RUN_THREADS=$threads cargo run --release -q -p pim-sim --bin repro -- all > "$threads_out"
    diff "$repro_a" "$threads_out"
done

# Bench harness smoke: two models across all six presets, one iteration;
# `repro bench` validates the emitted document against the
# hetero-pim-bench-v1 schema before writing it, so a zero exit means the
# schema check passed too.
bench_json=$tmp/bench.json
cargo run --release -q -p pim-sim --bin repro -- \
    bench --json "$bench_json" --models alex,vgg --iters 1 2> /dev/null
test -s "$bench_json"

# Fault smoke: the seeded degradation sweep must run clean, print a
# deterministic table, and every faulted schedule must satisfy the
# fault-aware legality checker (attempt chains, backoff, quarantine
# capacity) on top of the fault-free rules.
faults_a=$tmp/faults_a faults_b=$tmp/faults_b
cargo run --release -q -p pim-sim --bin repro -- \
    faults --seed 1 --rate 0.05 --models alex,lstm > "$faults_a"
cargo run --release -q -p pim-sim --bin repro -- \
    faults --seed 1 --rate 0.05 --models alex,lstm > "$faults_b"
diff "$faults_a" "$faults_b"
# Pinned bytes, not just run-to-run equality (as for every pin below): a
# deterministic change to the faulted drivers must not pass unseen.
echo "858007fa1a04a25d40b9371699c61e29  $faults_a" | md5sum --check --quiet
cargo run --release -q -p pim-verify -- \
    --model alexnet --model lstm --steps 2 --faults 1,0.05 --format json > /dev/null

# Order-invariance fuzz smoke (pass 5): 2 models x 8 seeded orders x
# 2 presets through the differential driver, unpinned and in the serial
# mode (PIM_RUN_THREADS=1) — the tie-break audit must not depend on the
# worker count. `repro fuzz` exits 1 on any divergence.
cargo run --release -q -p pim-sim --bin repro -- \
    fuzz --models alex,lstm --seeds 8 --presets hetero,progr > /dev/null
PIM_RUN_THREADS=1 cargo run --release -q -p pim-sim --bin repro -- \
    fuzz --models alex,lstm --seeds 8 --presets hetero,progr > /dev/null

# Priority-order dispatch pin: `repro search` with its defaults (beam 4,
# 3 rounds, AlexNet/DCGAN/LSTM) runs 312 seeded priority-order schedules,
# the one dispatch order besides the stable one. Its table must keep this
# digest, so a change to how that order dispatches cannot pass unseen.
search_md5=$(cargo run --release -q -p pim-sim --bin repro -- search | md5sum | cut -d' ' -f1)
test "$search_md5" = c6b7b2e59b24d6447f17d2bb7b67cbce

# Static order-invariance gate: pass 5 over every model with 4 permuted
# orders (seed 1), on top of the graph/KIR/schedule/report passes.
cargo run --release -q -p pim-verify -- \
    --all-models --orders 4,1 --format json > /dev/null

# ISA ground-truth smoke (pass 6): every model's kernels lowered to the
# pim-isa micro-ISA, validated, interpreted, and tally-matched against
# the Fig. 4 extraction exactly; then the analytic-vs-interpreted delta
# table byte-diffed between an unpinned run and one in the serial mode
# (PIM_RUN_THREADS=1) — the interpreted backend must not depend on the
# worker count.
isa_a=$tmp/isa_a isa_b=$tmp/isa_b
cargo run --release -q -p pim-verify -- \
    --all-models --isa --format json > /dev/null
cargo run --release -q -p pim-sim --bin repro -- isa > "$isa_a"
PIM_RUN_THREADS=1 cargo run --release -q -p pim-sim --bin repro -- isa > "$isa_b"
diff "$isa_a" "$isa_b"

# Serve smoke: boot the daemon on stdin, replay a seeded load trace
# twice, and byte-diff the full response streams — submission-order
# drain barriers make the stream a pure function of the input, so any
# worker-timing leak shows up as a diff. A third replay in the serial
# mode (PIM_RUN_THREADS=1) must match too: the trace has partitioned
# jobs, so this checks the partition fan-out inside the served stream.
# The stats lines must also show result sharing actually crossing
# tenants.
serve_trace=$tmp/serve_trace serve_a=$tmp/serve_a serve_b=$tmp/serve_b serve_c=$tmp/serve_c
cargo run --release -q -p pim-sim --bin repro -- \
    serve --emit-trace 200 --seed 7 --tenants 3 > "$serve_trace"
cargo run --release -q -p pim-sim --bin repro -- \
    serve < "$serve_trace" > "$serve_a" 2> /dev/null
cargo run --release -q -p pim-sim --bin repro -- \
    serve < "$serve_trace" > "$serve_b" 2> /dev/null
diff "$serve_a" "$serve_b"
PIM_RUN_THREADS=1 cargo run --release -q -p pim-sim --bin repro -- \
    serve < "$serve_trace" > "$serve_c" 2> /dev/null
diff "$serve_a" "$serve_c"
echo "35b03426e9d62bf0ba08c5614cf93331  $serve_a" | md5sum --check --quiet
grep -q '"cross_tenant_hits":[1-9]' "$serve_a"

# Closed-loop load run: zero failed or rejected jobs, with sampled
# responses byte-verified against direct Engine::execute runs (exit 1
# on any divergence).
cargo run --release -q -p pim-sim --bin repro -- \
    serve --load 300 --seed 1 --sample 20 > /dev/null

# Chaos smoke: the seeded resilience harness (adversarial schedule,
# exactly-once + breaker-conformance + worker-matrix + kill-restart
# recovery + disconnect invariants, DESIGN.md §4.13) must pass and its
# summary must be byte-identical across runs and pinned worker counts.
chaos_a=$tmp/chaos_a chaos_b=$tmp/chaos_b
PIM_RUN_THREADS=1 cargo run --release -q -p pim-sim --bin repro -- \
    chaos --seed 1 --ops 500 > "$chaos_a"
PIM_RUN_THREADS=4 cargo run --release -q -p pim-sim --bin repro -- \
    chaos --seed 1 --ops 500 > "$chaos_b"
diff "$chaos_a" "$chaos_b"
echo "c9dfaede480d1eecb6403d9f10fb9f95  $chaos_a" | md5sum --check --quiet

# Observability: the Chrome-trace export must be byte-identical across
# runs and structurally valid (parses, ph/ts/pid/tid present, per-track
# timestamps monotone — `repro tracecheck` gates all of it).
cargo run --release -q -p pim-sim --bin repro -- --trace "$trace_a" 2> /dev/null
cargo run --release -q -p pim-sim --bin repro -- --trace "$trace_b" 2> /dev/null
diff "$trace_a" "$trace_b"
echo "197eb88e727fc01dd5bed3ae0ab7ce5f  $trace_a" | md5sum --check --quiet
cargo run --release -q -p pim-sim --bin repro -- tracecheck "$trace_a" > /dev/null

echo "ci: all checks passed"
