//! Regenerates the paper's tables and figures, and runs the studies built
//! on them: placement previews, Chrome-trace export, the fault, fuzz, ISA
//! and search sweeps, the wall-clock bench, the serving daemon and its
//! chaos harness. `repro --help` prints every subcommand and flag; the
//! `USAGE` text below is the one copy. (fig8 covers fig9; fig11 covers
//! fig17; fig13 covers fig14/fig15.)
//!
//! Every subcommand returns a [`CliResult`] and `main` alone turns it into
//! an exit code: unknown sections, models and malformed flags are usage
//! errors (a structured message plus the usage block to stderr, exit 2);
//! runtime failures exit 1.
#![forbid(unsafe_code)]

use std::process::ExitCode;

use pim_common::cli::{
    exit_code, parse_pair, parse_value, require_in_range, verdict, ArgCursor, CliError, CliResult,
    OrFail,
};
use pim_models::ModelKind;
use pim_runtime::engine::SystemPreset;
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

/// Resolves a model name through the daemon's name table
/// ([`pim_sim::serve::model_kind`]).
fn model(name: &str) -> Result<ModelKind, String> {
    pim_sim::serve::model_kind(name).map_err(|e| e.message)
}

/// An optional model operand: absent means AlexNet.
fn model_arg(arg: Option<&String>) -> CliResult<ModelKind> {
    arg.map_or(Ok(ModelKind::AlexNet), |name| model(name))
        .map_err(CliError::Usage)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (which, args) = argv
        .split_first()
        .map_or(("all", &[][..]), |(which, args)| (which.as_str(), args));
    exit_code("repro", USAGE, run(which, args))
}

fn run(which: &str, args: &[String]) -> CliResult {
    match which {
        "--help" | "-h" => println!("{USAGE}"),
        "--trace" => return run_trace_export(args),
        "tracecheck" => return run_tracecheck(args),
        "bench" => return run_bench_cli(args),
        "schedule" => return run_schedule_preview(args),
        "faults" => return run_faults_cli(args),
        "fuzz" => return run_fuzz_cli(args),
        "isa" => return run_isa_cli(args),
        "search" => return run_search_cli(args),
        "serve" => return run_serve_cli(args),
        "chaos" => return run_chaos_cli(args),
        "csv" => {
            let rows = pim_sim::report::evaluation_grid(3).or_fail("csv failed")?;
            print!("{}", pim_sim::report::to_csv(&rows));
        }
        "config" => print_config(),
        "all" => {
            run_sections("all")?;
            print_config();
        }
        name if SECTIONS.iter().any(|(n, _)| *n == name) => return run_sections(name),
        other => return Err(CliError::Usage(format!("unknown section `{other}`"))),
    }
    Ok(())
}

fn print_config() {
    println!("Table IV: system configurations");
    for (k, v) in table_iv_rows() {
        println!("  {k:18} {v}");
    }
}

fn run_sections(which: &str) -> CliResult {
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
        println!("{}", result.or_fail(format_args!("{name} failed"))?);
    }
    Ok(())
}

/// Chrome-trace export: 2 steps of the model at batch 2 on the full
/// Hetero PIM, written to the path operand.
fn run_trace_export(args: &[String]) -> CliResult {
    let path = args
        .first()
        .ok_or_else(|| CliError::Usage("--trace requires an output path".into()))?;
    let kind = model_arg(args.get(1))?;
    let json = pim_sim::chrome::chrome_trace(kind, 2, 2, SystemPreset::Hetero)
        .or_fail("trace export failed")?;
    std::fs::write(path, json).or_fail(format_args!("trace export failed writing {path}"))?;
    eprintln!("wrote Chrome trace for {kind} to {path}");
    Ok(())
}

/// Structural validation of an exported trace.
fn run_tracecheck(args: &[String]) -> CliResult {
    let path = args
        .first()
        .ok_or_else(|| CliError::Usage("tracecheck requires a trace path".into()))?;
    let json =
        std::fs::read_to_string(path).or_fail(format_args!("tracecheck failed reading {path}"))?;
    let diags = pim_common::trace::validate_chrome_trace(&json);
    if !diags.is_clean() {
        return Err(CliError::Failed(Some(diags.render_text())));
    }
    println!("{path}: valid Chrome trace");
    Ok(())
}

/// Placement preview for one model on the full Hetero PIM.
fn run_schedule_preview(args: &[String]) -> CliResult {
    use pim_models::Model;
    use pim_runtime::engine::{Engine, EngineConfig};
    let kind = model_arg(args.first())?;
    let model = Model::build(kind).or_fail(format_args!("schedule failed building {kind}"))?;
    let engine = Engine::new(EngineConfig::preset(SystemPreset::Hetero));
    let rows = engine
        .plan_preview(model.graph())
        .or_fail("schedule failed")?;
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
    Ok(())
}

/// The fault-degradation sweep: simulates the requested models under
/// every engine preset with a seeded fault plan and prints the
/// degradation table (makespan, energy, slowdown, and the fault counters
/// per rate). Without `--rate` the default rate ladder is swept; the
/// output is deterministic in `(seed, rate)`. Not part of `repro all` —
/// fault runs never perturb the paper-figure output.
fn run_faults_cli(args: &[String]) -> CliResult {
    use pim_sim::faults;

    let mut seed = 1u64;
    let mut rates: Vec<f64> = faults::DEFAULT_RATES.to_vec();
    let mut kinds: Vec<ModelKind> = faults::DEFAULT_MODELS.to_vec();
    let mut steps = 2;
    let mut args = ArgCursor::new(args);
    while let Some(flag) = args.next_flag() {
        match flag {
            "--seed" => seed = args.parse()?,
            "--rate" => {
                let rate = args.parse_with(|v| {
                    require_in_range("--rate", parse_value("--rate", v)?, 0.0, 1.0)
                })?;
                rates = vec![rate];
            }
            "--models" => kinds = args.list(model)?,
            "--steps" => steps = args.count()?,
            _ => return Err(args.unknown()),
        }
    }
    let table = faults::degradation_table(&kinds, &rates, seed, steps).or_fail("faults failed")?;
    print!("{table}");
    Ok(())
}

/// The ISA-backend differential table: every requested model simulated
/// under the Hetero preset with the analytic and the interpreted
/// `pim_isa` programmable-PIM backend, with relative makespan/energy
/// deltas per model. Deterministic; byte-identical across runs and thread
/// counts. Exits 1 when a delta is out of bound. Not part of `repro all`
/// — the ISA backend never perturbs the paper-figure output.
fn run_isa_cli(args: &[String]) -> CliResult {
    use pim_sim::isa;

    let mut kinds: Vec<ModelKind> = isa::DEFAULT_MODELS.to_vec();
    let mut steps = 2;
    let mut args = ArgCursor::new(args);
    while let Some(flag) = args.next_flag() {
        match flag {
            "--models" => kinds = args.list(model)?,
            "--steps" => steps = args.count()?,
            _ => return Err(args.unknown()),
        }
    }
    let table = isa::isa_delta_table(&kinds, steps).or_fail("isa failed")?;
    print!("{table}");
    verdict(!table.contains("OUT OF BOUND"))
}

/// The order-invariance fuzz sweep (pass 5 as an experiment): runs every
/// requested model under every requested preset (all six when
/// `--presets` is absent) once per seeded tie-break permutation and diffs
/// each run against the stable order (report equality, legality replay,
/// counter cross-check). Exits 1 when any order diverges. Not part of
/// `repro all`.
fn run_fuzz_cli(args: &[String]) -> CliResult {
    use pim_sim::orders;

    let mut seeds = 8;
    let mut seed = 1u64;
    let mut kinds: Vec<ModelKind> = orders::DEFAULT_FUZZ_MODELS.to_vec();
    let mut presets = SystemPreset::ALL.to_vec();
    let mut steps = 2;
    let mut args = ArgCursor::new(args);
    while let Some(flag) = args.next_flag() {
        match flag {
            "--seeds" => seeds = args.count()?,
            "--seed" => seed = args.parse()?,
            "--models" => kinds = args.list(model)?,
            "--presets" => {
                presets = args.list(|p| pim_sim::serve::preset(p).map_err(|e| e.message))?;
            }
            "--steps" => steps = args.count()?,
            _ => return Err(args.unknown()),
        }
    }
    let table = orders::fuzz_table(&kinds, &presets, seeds, seed, steps).or_fail("fuzz failed")?;
    print!("{table}");
    verdict(!table.contains("order invariance: FAIL"))
}

/// The beam-search oracle-gap table: beam-searches the legal
/// priority-order space per model on the full Hetero preset and prints
/// the best-found makespan against the paper heuristic; every winner is
/// legality-replayed. Exits 1 if a winner fails the replay. Not part of
/// `repro all`.
fn run_search_cli(args: &[String]) -> CliResult {
    use pim_runtime::search::SearchConfig;
    use pim_sim::orders;

    let mut cfg = SearchConfig::default();
    let mut kinds: Vec<ModelKind> = orders::DEFAULT_SEARCH_MODELS.to_vec();
    let mut steps = 2;
    let mut args = ArgCursor::new(args);
    while let Some(flag) = args.next_flag() {
        match flag {
            "--beam" => cfg.beam_width = args.count()?,
            "--rounds" => cfg.rounds = args.parse()?,
            "--branch" => cfg.branching = args.count()?,
            "--seed" => cfg.seed = args.parse()?,
            "--models" => kinds = args.list(model)?,
            "--steps" => steps = args.count()?,
            _ => return Err(args.unknown()),
        }
    }
    let table = orders::oracle_gap_table(&kinds, SystemPreset::Hetero, &cfg, steps)
        .or_fail("search failed")?;
    print!("{table}");
    verdict(!table.contains("ILLEGAL"))
}

/// The multi-tenant simulation daemon. With no flags, serves
/// line-oriented JSON requests on stdin and writes one response line per
/// request to stdout (a stats summary goes to stderr at EOF) — the ci.sh
/// byte-diff mode. `--tcp` serves the same protocol per connection on
/// `127.0.0.1:PORT` (`--conns N` exits after N connections; otherwise
/// forever). `--load` generates a seeded trace of N jobs across T
/// tenants, drives it through the daemon, prints throughput,
/// queue-latency percentiles, and the cache hit rate, then re-runs every
/// K-th job directly through the engine and byte-compares the reports —
/// any failed job, rejection, or divergence exits 1. `--emit-trace`
/// prints the same generated trace for replaying by hand. Worker count
/// follows `PIM_RUN_THREADS`.
fn run_serve_cli(args: &[String]) -> CliResult {
    use pim_serve::{serve_lines, serve_tcp, ServeConfig, ServeControl};
    use pim_sim::cache::SharedStore;
    use pim_sim::serve::{verify_samples, SimRunner};

    let mut cfg = ServeConfig::default();
    let (mut load, mut emit, mut tcp, mut conns) = (None, None, None, None);
    let mut seed = 1u64;
    let mut tenants = 4;
    let mut sample = 25;
    let mut args = ArgCursor::new(args);
    while let Some(flag) = args.next_flag() {
        match flag {
            "--load" => load = Some(args.parse()?),
            "--emit-trace" => emit = Some(args.parse()?),
            "--tcp" => tcp = Some(args.parse::<u16>()?),
            "--conns" => conns = Some(args.count()?),
            "--seed" => seed = args.parse()?,
            "--tenants" => tenants = args.count()?,
            "--sample" => sample = args.count()?,
            "--journal" => cfg.journal = Some(args.value()?.into()),
            "--max-line-bytes" => cfg.max_line_bytes = args.count()?,
            _ => return Err(args.unknown()),
        }
    }

    if let Some(jobs) = emit {
        for line in pim_serve::loadgen::generate(jobs, seed, tenants) {
            println!("{line}");
        }
        return Ok(());
    }
    if let Some(jobs) = load {
        let trace = pim_serve::loadgen::generate(jobs, seed, tenants);
        let input = trace.join("\n") + "\n";
        let mut out = Vec::new();
        let started = std::time::Instant::now();
        let stats = serve_lines(&cfg, &SimRunner, &SharedStore, input.as_bytes(), &mut out)
            .or_fail("serve load run failed")?;
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
            return Err(CliError::Failed(Some(format!(
                "serve load: {} failed and {} rejected jobs",
                c.errors, c.rejected
            ))));
        }
        let responses: Vec<String> = String::from_utf8(out)
            .expect("responses are utf8")
            .lines()
            .map(str::to_string)
            .collect();
        let checked =
            verify_samples(&trace, &responses, sample).or_fail("serve load verification failed")?;
        println!("  verified {checked} sampled jobs against direct engine runs");
        return Ok(());
    }
    if let Some(port) = tcp {
        let listener = std::net::TcpListener::bind(("127.0.0.1", port))
            .or_fail(format_args!("serve: cannot bind 127.0.0.1:{port}"))?;
        let addr = listener
            .local_addr()
            .expect("bound listener has an address");
        eprintln!("serve: listening on {addr}");
        return serve_tcp(
            &cfg,
            &SimRunner,
            &SharedStore,
            &listener,
            conns,
            &ServeControl::new(),
        )
        .or_fail("serve: accept failed");
    }
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let stats = serve_lines(&cfg, &SimRunner, &SharedStore, stdin.lock(), stdout.lock())
        .or_fail("serve: I/O error")?;
    let c = &stats.counters;
    eprintln!(
        "serve: {} jobs, {} ok, {} errors, {} rejected, {} cache hits ({} cross-tenant), {} distinct cells",
        c.jobs, c.ok, c.errors, c.rejected, c.cache_hits, c.cross_tenant_hits, c.distinct_cells
    );
    Ok(())
}

/// Chaos/soak harness: expands the seed into an adversarial request
/// schedule (failing runs, duplicates, malformed/oversized/non-UTF-8
/// lines, kill-restart recovery cycles, mid-line disconnects) and checks
/// the daemon's resilience invariants; any violation exits 1. The
/// schedule injects worker panics by design, so the panic hook stays
/// quiet for those.
fn run_chaos_cli(args: &[String]) -> CliResult {
    let mut seed = 1u64;
    let mut ops = 500;
    let mut args = ArgCursor::new(args);
    while let Some(flag) = args.next_flag() {
        match flag {
            "--seed" => seed = args.parse()?,
            "--ops" => ops = args.count()?,
            _ => return Err(args.unknown()),
        }
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

    let summary = pim_serve::chaos::run_chaos(seed, ops).or_fail("chaos: invariant violated")?;
    println!("{summary}");
    Ok(())
}

/// The wall-clock benchmark harness: times every requested model against
/// all six `SystemPreset`s and emits a `hetero-pim-bench-v1` document — to
/// the `--json` path (a one-line summary goes to stderr), to stdout
/// otherwise. `--repro-all` additionally times N cold `repro all`
/// subprocesses and records the speedup against the externally measured
/// pre-change `--baseline`; each of the two needs the other. `--compare`
/// skips measuring entirely and diffs two previously written bench
/// documents: per-cell median deltas plus the geometric-mean speedup over
/// the matched cells.
fn run_bench_cli(args: &[String]) -> CliResult {
    use pim_sim::bench;

    if args.first().map(String::as_str) == Some("--compare") {
        let [_, a, b] = args else {
            return Err(CliError::Usage(
                "--compare expects exactly two bench JSON paths".into(),
            ));
        };
        let read = |path: &str| {
            std::fs::read_to_string(path)
                .or_fail(format_args!("bench compare failed reading {path}"))
        };
        let table =
            bench::compare_bench_json(&read(a)?, &read(b)?).or_fail("bench compare failed")?;
        print!("{table}");
        return Ok(());
    }
    let mut json_path = None;
    let mut kinds: Vec<ModelKind> = ModelKind::ALL.to_vec();
    let mut iters = 3;
    let mut steps = 3;
    let mut repro_runs = None;
    let mut baseline = None;
    let mut args = ArgCursor::new(args);
    while let Some(flag) = args.next_flag() {
        match flag {
            "--json" => json_path = Some(args.value()?),
            "--models" => kinds = args.list(model)?,
            "--iters" => iters = args.count()?,
            "--steps" => steps = args.count()?,
            "--repro-all" => repro_runs = Some(args.count()?),
            "--baseline" => {
                baseline = Some(args.parse_with(|v| {
                    parse_pair::<f64, f64>("--baseline", "<median_ms>,<min_ms>", v)
                })?);
            }
            _ => return Err(args.unknown()),
        }
    }
    if repro_runs.is_some() != baseline.is_some() {
        return Err(CliError::Usage(
            "--repro-all <runs> and --baseline <median_ms>,<min_ms> go together".into(),
        ));
    }

    let cells =
        bench::bench_cells(&kinds, &SystemPreset::ALL, steps, iters).or_fail("bench failed")?;
    let repro_all = match repro_runs.zip(baseline) {
        Some((runs, (pre_median, pre_min))) => {
            let post = bench::time_repro_all(runs).or_fail("bench failed timing repro all")?;
            Some(bench::repro_all_timing(pre_median, pre_min, &post))
        }
        None => None,
    };
    let file = bench::BenchFile {
        commit: bench::current_commit(),
        steps,
        iterations: iters,
        cells,
        repro_all,
    };
    let json = bench::to_json(&file);
    bench::validate_bench_json(&json).or_fail("bench produced an invalid document")?;
    let Some(path) = json_path else {
        print!("{json}");
        return Ok(());
    };
    std::fs::write(path, &json).or_fail(format_args!("bench failed writing {path}"))?;
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
    Ok(())
}
