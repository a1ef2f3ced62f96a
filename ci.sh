#!/usr/bin/env bash
# Local CI gate: formatting, lints, docs, tests, static verification, and
# a determinism check on the paper-reproduction sweep.
# Run from the repository root before pushing.
set -euo pipefail

cargo fmt --all --check
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
#   inline_always: the hot-path annotations are benchmarked, not
#     speculative.
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
    -A clippy::inline_always
    -A clippy::module_name_repetitions
)
cargo clippy --workspace --all-targets -- \
    -D warnings -W clippy::pedantic "${CLIPPY_PEDANTIC_ALLOW[@]}"

RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet
cargo test -q
cargo test --workspace -q

# The benchmark harness (its own workspace) builds against crates/ by
# path: removing an Engine or profiler item it uses must fail here, not
# first when the benchmark runs.
cargo test --release -q --manifest-path perfbench/Cargo.toml

# Workspace builds unify features (pim-sim default-enables pim-runtime's
# `trace`); make sure the feature-off hot path still compiles on its own.
cargo check -q -p pim-runtime

# The differential suite (50 seeded random graphs x 6 presets, optimized
# vs reference engine paths) runs under the workspace tests with the
# `parallel` feature on; re-run it with `parallel` off so both sweep
# drivers stay behaviour-identical.
cargo test -q -p pim-sim --no-default-features --features trace --test differential

# Seeded fault suite with `parallel` off (the workspace run above covers
# `parallel` on): engine recovery, the none-plan differential guard, and
# the fault-aware legality checker must not depend on the sweep driver.
cargo test -q -p pim-runtime --no-default-features fault
cargo test -q -p pim-sim --no-default-features --features trace --test fault_differential

# Static checker: every model graph, binary set, schedule, and report must
# come back with zero error-severity diagnostics (exit code gates).
cargo run --release -q -p pim-verify -- --all-models --format json > /dev/null

# Determinism: the full reproduction sweep must be byte-identical across
# runs (the simulator owns all its randomness).
repro_a=$(mktemp) repro_b=$(mktemp) trace_a=$(mktemp) trace_b=$(mktemp)
trap 'rm -f "$repro_a" "$repro_b" "$trace_a" "$trace_b" "${bench_json:-}"' EXIT
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
# the partitioned sweep pinned to 1, 2, and 4 workers (PIM_RUN_THREADS,
# see engine DESIGN.md §4.9); the sweep output must stay byte-identical
# to the unpinned runs above.
for threads in 1 2 4; do
    PIM_RUN_THREADS=$threads cargo test -q -p pim-sim --test differential
    threads_out=$(mktemp)
    trap 'rm -f "$repro_a" "$repro_b" "$trace_a" "$trace_b" "${threads_out:-}" "${bench_json:-}"' EXIT
    PIM_RUN_THREADS=$threads cargo run --release -q -p pim-sim --bin repro -- all > "$threads_out"
    diff "$repro_a" "$threads_out"
    rm -f "$threads_out"
done

# Bench harness smoke: two models across all six presets, one iteration;
# `repro bench` validates the emitted document against the
# hetero-pim-bench-v1 schema before writing it, so a zero exit means the
# schema check passed too.
bench_json=$(mktemp)
cargo run --release -q -p pim-sim --bin repro -- \
    bench --json "$bench_json" --models alex,vgg --iters 1 2> /dev/null
test -s "$bench_json"

# Fault smoke: the seeded degradation sweep must run clean, print a
# deterministic table, and every faulted schedule must satisfy the
# fault-aware legality checker (attempt chains, backoff, quarantine
# capacity) on top of the fault-free rules.
faults_a=$(mktemp) faults_b=$(mktemp)
trap 'rm -f "$repro_a" "$repro_b" "$trace_a" "$trace_b" "$faults_a" "$faults_b" "${bench_json:-}"' EXIT
cargo run --release -q -p pim-sim --bin repro -- \
    faults --seed 1 --rate 0.05 --models alex,lstm > "$faults_a"
cargo run --release -q -p pim-sim --bin repro -- \
    faults --seed 1 --rate 0.05 --models alex,lstm > "$faults_b"
diff "$faults_a" "$faults_b"
cargo run --release -q -p pim-verify -- \
    --model alexnet --model lstm --steps 2 --faults 1,0.05 --format json > /dev/null

# Order-invariance fuzz smoke (pass 5): 2 models x 8 seeded orders x
# 2 presets through the differential driver, with the sweep-level
# `parallel` feature on and off — the tie-break audit must not depend
# on the sweep driver. `repro fuzz` exits 1 on any divergence.
cargo run --release -q -p pim-sim --bin repro -- \
    fuzz --models alex,lstm --seeds 8 --presets hetero,progr > /dev/null
cargo run --release -q -p pim-sim --bin repro \
    --no-default-features --features trace -- \
    fuzz --models alex,lstm --seeds 8 --presets hetero,progr > /dev/null

# Static order-invariance gate: pass 5 over every model with 4 permuted
# orders (seed 1), on top of the graph/KIR/schedule/report passes.
cargo run --release -q -p pim-verify -- \
    --all-models --orders 4,1 --format json > /dev/null

# ISA ground-truth smoke (pass 6): every model's kernels lowered to the
# pim-isa micro-ISA, validated, interpreted, and tally-matched against
# the Fig. 4 extraction exactly; then the analytic-vs-interpreted delta
# table byte-diffed across runs, with the sweep-level `parallel` feature
# on and off — the interpreted backend must not depend on the driver.
isa_a=$(mktemp) isa_b=$(mktemp)
trap 'rm -f "$repro_a" "$repro_b" "$trace_a" "$trace_b" "$faults_a" "$faults_b" "$isa_a" "$isa_b" "${bench_json:-}"' EXIT
cargo run --release -q -p pim-verify -- \
    --all-models --isa --format json > /dev/null
cargo run --release -q -p pim-sim --bin repro -- isa > "$isa_a"
cargo run --release -q -p pim-sim --bin repro \
    --no-default-features --features trace -- isa > "$isa_b"
diff "$isa_a" "$isa_b"

# Serve smoke: boot the daemon on stdin, replay a seeded load trace
# twice, and byte-diff the full response streams — submission-order
# drain barriers make the stream a pure function of the input, so any
# worker-timing leak shows up as a diff. The stats lines must also show
# result sharing actually crossing tenants.
serve_trace=$(mktemp) serve_a=$(mktemp) serve_b=$(mktemp)
trap 'rm -f "$repro_a" "$repro_b" "$trace_a" "$trace_b" "$faults_a" "$faults_b" "$isa_a" "$isa_b" "$serve_trace" "$serve_a" "$serve_b" "${bench_json:-}"' EXIT
cargo run --release -q -p pim-sim --bin repro -- \
    serve --emit-trace 200 --seed 7 --tenants 3 > "$serve_trace"
cargo run --release -q -p pim-sim --bin repro -- \
    serve < "$serve_trace" > "$serve_a" 2> /dev/null
cargo run --release -q -p pim-sim --bin repro -- \
    serve < "$serve_trace" > "$serve_b" 2> /dev/null
diff "$serve_a" "$serve_b"
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
chaos_a=$(mktemp) chaos_b=$(mktemp)
trap 'rm -f "$repro_a" "$repro_b" "$trace_a" "$trace_b" "$faults_a" "$faults_b" "$isa_a" "$isa_b" "$serve_trace" "$serve_a" "$serve_b" "$chaos_a" "$chaos_b" "${bench_json:-}"' EXIT
PIM_RUN_THREADS=1 cargo run --release -q -p pim-sim --bin repro -- \
    chaos --seed 1 --ops 500 > "$chaos_a"
PIM_RUN_THREADS=4 cargo run --release -q -p pim-sim --bin repro -- \
    chaos --seed 1 --ops 500 > "$chaos_b"
diff "$chaos_a" "$chaos_b"

# Observability: the Chrome-trace export must be byte-identical across
# runs and structurally valid (parses, ph/ts/pid/tid present, per-track
# timestamps monotone — `repro tracecheck` gates all of it).
cargo run --release -q -p pim-sim --bin repro -- --trace "$trace_a" 2> /dev/null
cargo run --release -q -p pim-sim --bin repro -- --trace "$trace_b" 2> /dev/null
diff "$trace_a" "$trace_b"
cargo run --release -q -p pim-sim --bin repro -- tracecheck "$trace_a" > /dev/null

echo "ci: all checks passed"
