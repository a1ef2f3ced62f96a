//! Regenerates the paper's tables and figures.
//!
//! Usage: `repro [table1|fig2|fig8|fig10|fig11|fig12|fig13|fig16|ablations|config|csv|all]`,
//! `repro schedule <model>` for a placement preview,
//! `repro faults [--seed N] [--rate R] [--models a,b] [--steps N]` for the
//! seeded fault-degradation sweep,
//! `repro fuzz [--seeds N] [--seed N] [--models a,b] [--presets p,q] [--steps N]` for the
//! order-invariance fuzz sweep (pass 5),
//! `repro isa [--models a,b] [--steps N]` for the analytic-vs-interpreted
//! ISA-backend delta table,
//! `repro search [--beam N] [--rounds N] [--branch N] [--seed N]
//! [--models a,b] [--steps N]` for the beam-search oracle-gap table,
//! `repro --trace <path> [model]` to export a Chrome trace of one
//! Hetero PIM run, `repro tracecheck <path>` to validate one,
//! `repro bench [--json <path>]` for the wall-clock benchmark harness
//! (see `run_bench_cli` for its flags), or
//! `repro serve` for the multi-tenant simulation daemon (line-oriented
//! JSON on stdin, `--tcp PORT`, a seeded closed-loop load run via
//! `--load N --seed S`, or `--emit-trace N` to print the load trace).
//! (fig8 covers fig9; fig11 covers fig17; fig13 covers fig14/fig15).
//!
//! Unknown sections, models, and malformed flags are usage errors: the
//! binary prints a structured message plus the usage block to stderr and
//! exits 2 (runtime failures exit 1).
#![forbid(unsafe_code)]

use pim_models::ModelKind;
use pim_sim::configs::table_iv_rows;
use pim_sim::experiments;

type Section = (&'static str, fn() -> pim_common::Result<String>);

const SECTIONS: [Section; 9] = [
    ("table1", experiments::table1),
    ("fig2", experiments::fig2),
    ("fig8", experiments::fig8_fig9),
    ("fig10", experiments::fig10),
    ("fig11", experiments::fig11_fig17),
    ("fig12", experiments::fig12),
    ("fig13", experiments::fig13_fig14_fig15),
    ("fig16", experiments::fig16),
    ("ablations", experiments::ablations),
];

const USAGE: &str = "usage: repro [SECTION | all | config | csv]
       repro schedule [MODEL]
       repro faults [--seed N] [--rate R] [--models a,b,..] [--steps N]
       repro fuzz [--seeds N] [--seed N] [--models a,b,..] [--presets p,q,..] [--steps N]
       repro isa [--models a,b,..] [--steps N]
       repro search [--beam N] [--rounds N] [--branch N] [--seed N]
                    [--models a,b,..] [--steps N]
       repro --trace <path> [MODEL]
       repro tracecheck <path>
       repro bench [--json <path>] [--models a,b,..] [--iters N] [--steps N]
                   [--repro-all <runs> --baseline <median_ms>,<min_ms>]
       repro bench --compare <a.json> <b.json>
       repro serve [--tcp PORT [--conns N]] [--journal <path>] [--max-line-bytes N]
       repro serve --load N [--seed S] [--tenants T] [--sample K]
       repro serve --emit-trace N [--seed S] [--tenants T]
       repro chaos [--seed S] [--ops N]

sections: table1 fig2 fig8 fig10 fig11 fig12 fig13 fig16 ablations
models:   alex vgg dcgan resnet inception lstm w2v";

/// Prints a structured usage error to stderr and exits 2.
fn usage_error(msg: &str) -> ! {
    pim_common::cli::usage_error("repro", msg, USAGE)
}

/// Resolves a model flag through the daemon's name table
/// ([`pim_sim::serve::model_kind`]); absent means AlexNet, unknown names
/// are usage errors.
fn model_arg(arg: Option<&str>) -> ModelKind {
    arg.map_or(Ok(ModelKind::AlexNet), pim_sim::serve::model_kind)
        .unwrap_or_else(|e| usage_error(&e.message))
}

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    match which.as_str() {
        "--help" | "-h" => println!("{USAGE}"),
        "--trace" => run_trace_export(),
        "tracecheck" => run_tracecheck(),
        "bench" => run_bench_cli(),
        "schedule" => run_schedule_preview(),
        "faults" => run_faults_cli(),
        "fuzz" => run_fuzz_cli(),
        "isa" => run_isa_cli(),
        "search" => run_search_cli(),
        "serve" => run_serve_cli(),
        "chaos" => run_chaos_cli(),
        "csv" => match pim_sim::report::evaluation_grid(3) {
            Ok(rows) => print!("{}", pim_sim::report::to_csv(&rows)),
            Err(e) => {
                eprintln!("csv failed: {e}");
                std::process::exit(1);
            }
        },
        "config" => print_config(),
        "all" => {
            run_sections("all");
            print_config();
        }
        name if SECTIONS.iter().any(|(n, _)| *n == name) => run_sections(name),
        other => usage_error(&format!("unknown section `{other}`")),
    }
}

fn print_config() {
    println!("Table IV: system configurations");
    for (k, v) in table_iv_rows() {
        println!("  {k:18} {v}");
    }
}

fn run_sections(which: &str) {
    let selected: Vec<_> = SECTIONS
        .iter()
        .filter(|(name, _)| which == *name || which == "all")
        .collect();
    // The figures are independent simulations: sweep them across threads
    // (`PIM_RUN_THREADS=1` runs them serially) and print in the fixed
    // section order so the output stays deterministic. Fig. 16 is claimed
    // first: its co-runs and sized solo runs simulate more op instances
    // than any other section, so started last it would set the sweep's
    // wall time alone. The rest keep section order.
    let mut order: Vec<usize> = (0..selected.len()).collect();
    order.sort_by_key(|&i| selected[i].0 != "fig16");
    let results = pim_runtime::par::par_map_claiming(&selected, &order, |(_, f)| f());
    for ((name, _), result) in selected.iter().zip(results) {
        match result {
            Ok(text) => println!("{text}"),
            Err(e) => {
                eprintln!("{name} failed: {e}");
                std::process::exit(1);
            }
        }
    }
}

/// Chrome-trace export: `repro --trace <path> [model]` (2 steps of the
/// model at batch 2 on the full Hetero PIM).
fn run_trace_export() {
    use pim_runtime::engine::SystemPreset;
    let path = std::env::args()
        .nth(2)
        .unwrap_or_else(|| usage_error("--trace requires an output path"));
    let kind = model_arg(std::env::args().nth(3).as_deref());
    match pim_sim::chrome::chrome_trace(kind, 2, 2, SystemPreset::Hetero) {
        Ok(json) => {
            if let Err(e) = std::fs::write(&path, json) {
                eprintln!("trace export failed writing {path}: {e}");
                std::process::exit(1);
            }
            eprintln!("wrote Chrome trace for {kind} to {path}");
        }
        Err(e) => {
            eprintln!("trace export failed: {e}");
            std::process::exit(1);
        }
    }
}

/// Structural validation of an exported trace: `repro tracecheck <path>`.
fn run_tracecheck() {
    let path = std::env::args()
        .nth(2)
        .unwrap_or_else(|| usage_error("tracecheck requires a trace path"));
    let json = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        eprintln!("tracecheck failed reading {path}: {e}");
        std::process::exit(1);
    });
    let diags = pim_common::trace::validate_chrome_trace(&json);
    if diags.is_clean() {
        println!("{path}: valid Chrome trace");
    } else {
        eprintln!("{}", diags.render_text());
        std::process::exit(1);
    }
}

/// Placement preview for one model: `repro schedule [alex|vgg|...]`.
fn run_schedule_preview() {
    use pim_models::Model;
    use pim_runtime::engine::{Engine, EngineConfig, SystemPreset};
    let kind = model_arg(std::env::args().nth(2).as_deref());
    let model = match Model::build(kind) {
        Ok(model) => model,
        Err(e) => {
            eprintln!("schedule failed building {kind}: {e}");
            std::process::exit(1);
        }
    };
    let engine = Engine::new(EngineConfig::preset(SystemPreset::Hetero));
    match engine.plan_preview(model.graph()) {
        Ok(rows) => {
            println!("placement preview for {kind} (uncontended):");
            for r in rows {
                println!(
                    "  {:>6} {:28} {:9.6}s {} {}",
                    r.op.to_string(),
                    r.name,
                    r.seconds,
                    if r.candidate {
                        "[candidate]"
                    } else {
                        "           "
                    },
                    r.placement,
                );
            }
        }
        Err(e) => {
            eprintln!("schedule failed: {e}");
            std::process::exit(1);
        }
    }
}

/// The fault-degradation sweep:
///
/// ```text
/// repro faults [--seed N] [--rate R] [--models alex,lstm,...] [--steps N]
/// ```
///
/// Simulates the requested models under every engine preset with a
/// seeded fault plan and prints the degradation table (makespan, energy,
/// slowdown, and the fault counters per rate). Without `--rate` the
/// default rate ladder is swept; the output is deterministic in
/// `(seed, rate)`. Not part of `repro all` — fault runs never perturb
/// the paper-figure output.
fn run_faults_cli() {
    use pim_sim::faults;

    let args: Vec<String> = std::env::args().skip(2).collect();
    let mut seed = 1u64;
    let mut rates: Vec<f64> = faults::DEFAULT_RATES.to_vec();
    let mut kinds: Vec<ModelKind> = faults::DEFAULT_MODELS.to_vec();
    let mut steps = 2usize;
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1).map(String::as_str);
        match (args[i].as_str(), value) {
            ("--seed", Some(v)) => {
                seed = v
                    .parse()
                    .unwrap_or_else(|_| usage_error(&format!("invalid fault seed `{v}`")));
            }
            ("--rate", Some(v)) => {
                let rate: f64 = v
                    .parse()
                    .unwrap_or_else(|_| usage_error(&format!("invalid fault rate `{v}`")));
                if !(0.0..=1.0).contains(&rate) {
                    usage_error(&format!("fault rate must be in [0, 1], got {rate}"));
                }
                rates = vec![rate];
            }
            ("--models", Some(v)) => {
                kinds = v.split(',').map(|m| model_arg(Some(m.trim()))).collect();
            }
            ("--steps", Some(v)) => {
                steps = v
                    .parse()
                    .unwrap_or_else(|_| usage_error(&format!("invalid step count `{v}`")));
                if steps == 0 {
                    usage_error("--steps must be at least 1");
                }
            }
            (flag, _) => usage_error(&format!("unknown or incomplete faults flag `{flag}`")),
        }
        i += 2;
    }
    match faults::degradation_table(&kinds, &rates, seed, steps) {
        Ok(table) => print!("{table}"),
        Err(e) => {
            eprintln!("faults failed: {e}");
            std::process::exit(1);
        }
    }
}

/// The ISA-backend differential table (`repro isa`): every requested
/// model simulated under the Hetero preset with the analytic and the
/// interpreted `pim_isa` programmable-PIM backend, with relative
/// makespan/energy deltas per model. Deterministic; byte-identical
/// across runs and thread counts. Not part of `repro all` — the ISA
/// backend never perturbs the paper-figure output.
fn run_isa_cli() {
    use pim_common::cli::parse_value;
    use pim_sim::isa;

    let args: Vec<String> = std::env::args().skip(2).collect();
    let mut kinds: Vec<ModelKind> = isa::DEFAULT_MODELS.to_vec();
    let mut steps = 2usize;
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1).map(String::as_str);
        match (args[i].as_str(), value) {
            ("--models", Some(v)) => {
                kinds = v.split(',').map(|m| model_arg(Some(m.trim()))).collect();
            }
            ("--steps", Some(v)) => {
                steps = parse_value("--steps", v).unwrap_or_else(|e| usage_error(&e));
                if steps == 0 {
                    usage_error("--steps must be at least 1");
                }
            }
            (flag, _) => usage_error(&format!("unknown or incomplete isa flag `{flag}`")),
        }
        i += 2;
    }
    match isa::isa_delta_table(&kinds, steps) {
        Ok(table) => {
            print!("{table}");
            if table.contains("OUT OF BOUND") {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("isa failed: {e}");
            std::process::exit(1);
        }
    }
}

/// The order-invariance fuzz sweep (pass 5 as an experiment):
///
/// ```text
/// repro fuzz [--seeds N] [--seed N] [--models alex,lstm,...]
///            [--presets cpu,progr,...] [--steps N]
/// ```
///
/// Runs every requested model under every requested preset (all six
/// when `--presets` is absent) once per seeded
/// tie-break permutation and diffs each run against the stable order
/// (report equality, legality replay, counter cross-check). Exits 1
/// when any order diverges. Not part of `repro all`.
fn run_fuzz_cli() {
    use pim_common::cli::parse_value;
    use pim_sim::orders;

    let args: Vec<String> = std::env::args().skip(2).collect();
    let mut seeds = 8usize;
    let mut seed = 1u64;
    let mut kinds: Vec<ModelKind> = orders::DEFAULT_FUZZ_MODELS.to_vec();
    let mut presets = pim_runtime::engine::SystemPreset::ALL.to_vec();
    let mut steps = 2usize;
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1).map(String::as_str);
        match (args[i].as_str(), value) {
            ("--seeds", Some(v)) => {
                seeds = parse_value("--seeds", v).unwrap_or_else(|e| usage_error(&e));
                if seeds == 0 {
                    usage_error("--seeds must be at least 1");
                }
            }
            ("--seed", Some(v)) => {
                seed = parse_value("--seed", v).unwrap_or_else(|e| usage_error(&e));
            }
            ("--models", Some(v)) => {
                kinds = v.split(',').map(|m| model_arg(Some(m.trim()))).collect();
            }
            ("--presets", Some(v)) => {
                presets = v
                    .split(',')
                    .map(|p| {
                        orders::parse_preset(p.trim())
                            .unwrap_or_else(|e| usage_error(&e.to_string()))
                    })
                    .collect();
            }
            ("--steps", Some(v)) => {
                steps = parse_value("--steps", v).unwrap_or_else(|e| usage_error(&e));
                if steps == 0 {
                    usage_error("--steps must be at least 1");
                }
            }
            (flag, _) => usage_error(&format!("unknown or incomplete fuzz flag `{flag}`")),
        }
        i += 2;
    }
    match orders::fuzz_table(&kinds, &presets, seeds, seed, steps) {
        Ok(table) => {
            print!("{table}");
            if table.contains("order invariance: FAIL") {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("fuzz failed: {e}");
            std::process::exit(1);
        }
    }
}

/// The beam-search oracle-gap table:
///
/// ```text
/// repro search [--beam N] [--rounds N] [--branch N] [--seed N]
///              [--models alex,dcgan,...] [--steps N]
/// ```
///
/// Beam-searches the legal priority-order space per model on the full
/// Hetero preset and prints the best-found makespan against the paper
/// heuristic; every winner is legality-replayed. Exits 1 if a winner
/// fails the replay. Not part of `repro all`.
fn run_search_cli() {
    use pim_common::cli::parse_value;
    use pim_runtime::engine::SystemPreset;
    use pim_runtime::search::SearchConfig;
    use pim_sim::orders;

    let args: Vec<String> = std::env::args().skip(2).collect();
    let mut cfg = SearchConfig::default();
    let mut kinds: Vec<ModelKind> = orders::DEFAULT_SEARCH_MODELS.to_vec();
    let mut steps = 2usize;
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1).map(String::as_str);
        match (args[i].as_str(), value) {
            ("--beam", Some(v)) => {
                cfg.beam_width = parse_value("--beam", v).unwrap_or_else(|e| usage_error(&e));
                if cfg.beam_width == 0 {
                    usage_error("--beam must be at least 1");
                }
            }
            ("--rounds", Some(v)) => {
                cfg.rounds = parse_value("--rounds", v).unwrap_or_else(|e| usage_error(&e));
            }
            ("--branch", Some(v)) => {
                cfg.branching = parse_value("--branch", v).unwrap_or_else(|e| usage_error(&e));
                if cfg.branching == 0 {
                    usage_error("--branch must be at least 1");
                }
            }
            ("--seed", Some(v)) => {
                cfg.seed = parse_value("--seed", v).unwrap_or_else(|e| usage_error(&e));
            }
            ("--models", Some(v)) => {
                kinds = v.split(',').map(|m| model_arg(Some(m.trim()))).collect();
            }
            ("--steps", Some(v)) => {
                steps = parse_value("--steps", v).unwrap_or_else(|e| usage_error(&e));
                if steps == 0 {
                    usage_error("--steps must be at least 1");
                }
            }
            (flag, _) => usage_error(&format!("unknown or incomplete search flag `{flag}`")),
        }
        i += 2;
    }
    match orders::oracle_gap_table(&kinds, SystemPreset::Hetero, &cfg, steps) {
        Ok(table) => {
            print!("{table}");
            if table.contains("ILLEGAL") {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("search failed: {e}");
            std::process::exit(1);
        }
    }
}

/// The multi-tenant simulation daemon:
///
/// ```text
/// repro serve [--tcp PORT [--conns N]]
/// repro serve --load N [--seed S] [--tenants T] [--sample K]
/// repro serve --emit-trace N [--seed S] [--tenants T]
/// ```
///
/// With no flags, serves line-oriented JSON requests on stdin and
/// writes one response line per request to stdout (a stats summary goes
/// to stderr at EOF) — the ci.sh byte-diff mode. `--tcp` serves the
/// same protocol per connection on `127.0.0.1:PORT` (`--conns N` exits
/// after N connections; otherwise forever). `--load` generates a
/// seeded trace of N jobs across T tenants, drives it through the
/// daemon, prints throughput, queue-latency percentiles, and the cache
/// hit rate, then re-runs every K-th job directly through the engine
/// and byte-compares the reports — any failed job, rejection, or
/// divergence exits 1. `--emit-trace` prints the same generated trace
/// for replaying by hand. Worker count follows `PIM_RUN_THREADS`.
fn run_serve_cli() {
    use pim_common::cli::parse_value;
    use pim_serve::{serve_lines, serve_tcp, ServeConfig, ServeControl};
    use pim_sim::cache::SharedStore;
    use pim_sim::serve::{verify_samples, SimRunner};

    let args: Vec<String> = std::env::args().skip(2).collect();
    let mut load: Option<usize> = None;
    let mut emit: Option<usize> = None;
    let mut tcp: Option<u16> = None;
    let mut conns: Option<usize> = None;
    let mut seed = 1u64;
    let mut tenants = 4usize;
    let mut sample = 25usize;
    let mut journal: Option<std::path::PathBuf> = None;
    let mut max_line_bytes: Option<usize> = None;
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1).map(String::as_str);
        match (args[i].as_str(), value) {
            ("--load", Some(v)) => {
                load = Some(parse_value("--load", v).unwrap_or_else(|e| usage_error(&e)));
            }
            ("--emit-trace", Some(v)) => {
                emit = Some(parse_value("--emit-trace", v).unwrap_or_else(|e| usage_error(&e)));
            }
            ("--tcp", Some(v)) => {
                tcp = Some(parse_value("--tcp", v).unwrap_or_else(|e| usage_error(&e)));
            }
            ("--conns", Some(v)) => {
                conns = Some(parse_value("--conns", v).unwrap_or_else(|e| usage_error(&e)));
            }
            ("--seed", Some(v)) => {
                seed = parse_value("--seed", v).unwrap_or_else(|e| usage_error(&e));
            }
            ("--tenants", Some(v)) => {
                tenants = parse_value("--tenants", v).unwrap_or_else(|e| usage_error(&e));
                if tenants == 0 {
                    usage_error("--tenants must be at least 1");
                }
            }
            ("--sample", Some(v)) => {
                sample = parse_value("--sample", v).unwrap_or_else(|e| usage_error(&e));
                if sample == 0 {
                    usage_error("--sample must be at least 1");
                }
            }
            ("--journal", Some(v)) => {
                journal = Some(std::path::PathBuf::from(v));
            }
            ("--max-line-bytes", Some(v)) => {
                let n: usize =
                    parse_value("--max-line-bytes", v).unwrap_or_else(|e| usage_error(&e));
                if n == 0 {
                    usage_error("--max-line-bytes must be at least 1");
                }
                max_line_bytes = Some(n);
            }
            (flag, _) => usage_error(&format!("unknown or incomplete serve flag `{flag}`")),
        }
        i += 2;
    }

    let mut cfg = ServeConfig::default();
    if let Some(n) = max_line_bytes {
        cfg.max_line_bytes = n;
    }
    // The journal is a single-stream facility: it applies to the stdin
    // daemon only (serve_tcp clears it per connection).
    cfg.journal = journal;
    if let Some(jobs) = emit {
        for line in pim_serve::loadgen::generate(jobs, seed, tenants) {
            println!("{line}");
        }
        return;
    }
    if let Some(jobs) = load {
        let trace = pim_serve::loadgen::generate(jobs, seed, tenants);
        let input = trace.join("\n") + "\n";
        let mut out = Vec::new();
        let started = std::time::Instant::now();
        let stats = serve_lines(&cfg, &SimRunner, &SharedStore, input.as_bytes(), &mut out)
            .unwrap_or_else(|e| {
                eprintln!("serve load run failed: {e}");
                std::process::exit(1);
            });
        let elapsed = started.elapsed().as_secs_f64();
        let c = &stats.counters;
        let hit_rate = if c.ok == 0 {
            0.0
        } else {
            100.0 * c.cache_hits as f64 / c.ok as f64
        };
        println!("serve load: {jobs} jobs, seed {seed}, {tenants} tenants");
        println!(
            "  ok {} | errors {} | rejected {} | distinct cells {} | cross-tenant hits {}",
            c.ok, c.errors, c.rejected, c.distinct_cells, c.cross_tenant_hits
        );
        println!(
            "  throughput {:.1} jobs/s ({elapsed:.2}s wall)",
            c.ok as f64 / elapsed
        );
        println!(
            "  queue latency p50 {} us | p99 {} us",
            stats.latency_percentile_us(50.0),
            stats.latency_percentile_us(99.0)
        );
        println!("  cache hit rate {hit_rate:.1}%");
        if c.errors != 0 || c.rejected != 0 {
            eprintln!(
                "serve load: {} failed and {} rejected jobs",
                c.errors, c.rejected
            );
            std::process::exit(1);
        }
        let responses: Vec<String> = String::from_utf8(out)
            .expect("responses are utf8")
            .lines()
            .map(str::to_string)
            .collect();
        match verify_samples(&trace, &responses, sample) {
            Ok(checked) => println!("  verified {checked} sampled jobs against direct engine runs"),
            Err(e) => {
                eprintln!("serve load verification failed: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    if let Some(port) = tcp {
        let listener = std::net::TcpListener::bind(("127.0.0.1", port)).unwrap_or_else(|e| {
            eprintln!("serve: cannot bind 127.0.0.1:{port}: {e}");
            std::process::exit(1);
        });
        let addr = listener
            .local_addr()
            .expect("bound listener has an address");
        eprintln!("serve: listening on {addr}");
        if let Err(e) = serve_tcp(
            &cfg,
            &SimRunner,
            &SharedStore,
            &listener,
            conns,
            &ServeControl::new(),
        ) {
            eprintln!("serve: accept failed: {e}");
            std::process::exit(1);
        }
        return;
    }
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    match serve_lines(&cfg, &SimRunner, &SharedStore, stdin.lock(), stdout.lock()) {
        Ok(stats) => {
            let c = &stats.counters;
            eprintln!(
                "serve: {} jobs, {} ok, {} errors, {} rejected, {} cache hits ({} cross-tenant), {} distinct cells",
                c.jobs, c.ok, c.errors, c.rejected, c.cache_hits, c.cross_tenant_hits, c.distinct_cells
            );
        }
        Err(e) => {
            eprintln!("serve: I/O error: {e}");
            std::process::exit(1);
        }
    }
}

/// Chaos/soak harness: `repro chaos [--seed S] [--ops N]` expands the
/// seed into an adversarial request schedule (failing runs, duplicates,
/// malformed/oversized/non-UTF-8 lines, kill-restart recovery cycles,
/// mid-line disconnects) and checks the daemon's resilience invariants;
/// any violation exits 1. The schedule injects worker panics by design,
/// so the panic hook stays quiet for those.
fn run_chaos_cli() {
    use pim_common::cli::parse_value;

    let args: Vec<String> = std::env::args().skip(2).collect();
    let mut seed = 1u64;
    let mut ops = 500usize;
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1).map(String::as_str);
        match (args[i].as_str(), value) {
            ("--seed", Some(v)) => {
                seed = parse_value("--seed", v).unwrap_or_else(|e| usage_error(&e));
            }
            ("--ops", Some(v)) => {
                ops = parse_value("--ops", v).unwrap_or_else(|e| usage_error(&e));
                if ops == 0 {
                    usage_error("--ops must be at least 1");
                }
            }
            (flag, _) => usage_error(&format!("unknown or incomplete chaos flag `{flag}`")),
        }
        i += 2;
    }

    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            .is_some_and(|m| m.contains("chaos: injected runner panic"));
        if !injected {
            default_hook(info);
        }
    }));

    match pim_serve::chaos::run_chaos(seed, ops) {
        Ok(summary) => println!("{summary}"),
        Err(violation) => {
            eprintln!("chaos: invariant violated: {violation}");
            std::process::exit(1);
        }
    }
}

/// The wall-clock benchmark harness:
///
/// ```text
/// repro bench [--json <path>] [--models alex,vgg,...] [--iters N]
///             [--steps N] [--repro-all <runs> --baseline <median_ms>,<min_ms>]
/// repro bench --compare <a.json> <b.json>
/// ```
///
/// Times every requested model against all six `SystemPreset`s and
/// emits a `hetero-pim-bench-v1` document — to `<path>` with `--json`
/// (a one-line summary goes to stderr), to stdout otherwise. `--repro-all`
/// additionally times N cold `repro all` subprocesses and records the
/// speedup against the externally measured pre-change `--baseline`.
/// `--compare` skips measuring entirely and diffs two previously written
/// bench documents: per-cell median deltas plus the geometric-mean
/// speedup over the matched cells.
fn run_bench_cli() {
    use pim_sim::bench;

    let args: Vec<String> = std::env::args().skip(2).collect();
    if args.first().map(String::as_str) == Some("--compare") {
        let (Some(a), Some(b), 3) = (args.get(1), args.get(2), args.len()) else {
            usage_error("--compare expects exactly two bench JSON paths")
        };
        let read = |path: &str| {
            std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("bench compare failed reading {path}: {e}");
                std::process::exit(1);
            })
        };
        match bench::compare_bench_json(&read(a), &read(b)) {
            Ok(table) => print!("{table}"),
            Err(e) => {
                eprintln!("bench compare failed: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    let mut json_path: Option<String> = None;
    let mut kinds: Vec<ModelKind> = ModelKind::ALL.to_vec();
    let mut iters = 3usize;
    let mut steps = 3usize;
    let mut repro_runs = 0usize;
    let mut baseline: Option<(f64, f64)> = None;
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1);
        match (args[i].as_str(), value) {
            ("--json", Some(v)) => json_path = Some(v.clone()),
            ("--models", Some(v)) => {
                kinds = v.split(',').map(|m| model_arg(Some(m.trim()))).collect();
            }
            ("--iters", Some(v)) => {
                iters = v
                    .parse()
                    .unwrap_or_else(|_| usage_error(&format!("invalid iteration count `{v}`")));
            }
            ("--steps", Some(v)) => {
                steps = v
                    .parse()
                    .unwrap_or_else(|_| usage_error(&format!("invalid step count `{v}`")));
            }
            ("--repro-all", Some(v)) => {
                repro_runs = v
                    .parse()
                    .unwrap_or_else(|_| usage_error(&format!("invalid repro-all run count `{v}`")));
            }
            ("--baseline", Some(v)) => {
                let parsed = v
                    .split_once(',')
                    .and_then(|(median, min)| Some((median.parse().ok()?, min.parse().ok()?)));
                baseline = Some(parsed.unwrap_or_else(|| {
                    usage_error(&format!(
                        "--baseline expects <median_ms>,<min_ms>, got `{v}`"
                    ))
                }));
            }
            (flag, _) => usage_error(&format!("unknown or incomplete bench flag `{flag}`")),
        }
        i += 2;
    }

    use pim_runtime::engine::SystemPreset;
    let cells = bench::bench_cells(&kinds, &SystemPreset::ALL, steps, iters).unwrap_or_else(|e| {
        eprintln!("bench failed: {e}");
        std::process::exit(1);
    });
    let repro_all = if repro_runs > 0 {
        let (pre_median, pre_min) = baseline.unwrap_or_else(|| {
            usage_error("--repro-all needs --baseline <median_ms>,<min_ms> to compare against")
        });
        let post = bench::time_repro_all(repro_runs).unwrap_or_else(|e| {
            eprintln!("bench failed timing repro all: {e}");
            std::process::exit(1);
        });
        Some(bench::repro_all_timing(pre_median, pre_min, &post))
    } else {
        None
    };
    let file = bench::BenchFile {
        commit: bench::current_commit(),
        steps,
        iterations: iters,
        cells,
        repro_all,
    };
    let json = bench::to_json(&file);
    if let Err(e) = bench::validate_bench_json(&json) {
        eprintln!("bench produced an invalid document: {e}");
        std::process::exit(1);
    }
    match json_path {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, &json) {
                eprintln!("bench failed writing {path}: {e}");
                std::process::exit(1);
            }
            eprintln!(
                "wrote {} cells ({} models x {} presets, commit {}) to {path}",
                file.cells.len(),
                kinds.len(),
                SystemPreset::ALL.len(),
                file.commit,
            );
            if let Some(r) = &file.repro_all {
                eprintln!(
                    "repro all: {:.0} ms -> {:.0} ms median ({:.2}x)",
                    r.pre_median_ms,
                    r.post_median_ms,
                    r.speedup(),
                );
            }
        }
        None => print!("{json}"),
    }
}
