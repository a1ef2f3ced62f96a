//! The layer pass of every traced run.
//!
//! A workload's traced passes measure the layers that workload reaches
//! (see each workload's `layer_metrics`). The layer pass then measures
//! every per-layer metric still missing, by calling each layer's public
//! functions directly, in spans, over fixed inputs: the seven paper
//! models at paper batch sizes through model build, cost
//! characterization, dependency indexing, step-1 profiling, candidate
//! selection, the planner preview, and one fault-free execute per
//! (model, preset) cell at [`STEPS`] steps; a [`SERVE_PROBE_JOBS`]-job
//! serve probe; and the nine `repro` sections in fresh processes. So
//! every traced run prints every per-layer metric, and a metric a
//! workload's own passes measure is never overwritten.

use crate::engine_work::{makespan, model_name, preset_name, request, FAULT_RATE};
use crate::serve_work::ServeWork;
use crate::spans::{self, Span, Tracer};
use crate::{repro_work, stats, Args, Metrics, Workload};
use pim_hw::faults::FaultPlan;
use pim_models::{Model, ModelKind};
use pim_runtime::profiler::{profile_step, profile_step_cached};
use pim_runtime::select::select_candidates;
use pim_runtime::{Engine, EngineConfig, SystemPreset};
use std::hint::black_box;

/// Rounds of the in-process layer pass; each metric is a median over them.
pub const ROUNDS: usize = 5;
/// Steps per layer-pass execute.
pub const STEPS: usize = 3;
/// Run requests in the serve probe.
pub const SERVE_PROBE_JOBS: usize = 256;
/// Passes of the serve probe.
pub const SERVE_PROBE_PASSES: usize = 3;
/// Rounds of the nine section processes.
pub const SECTION_ROUNDS: usize = 3;

type Res<T> = Result<T, String>;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// One in-process round under a `layers` root span.
/// Returns the round's (events, stalls) over all executes and the op
/// count over the seven models.
fn round(tracer: &Tracer, seed: u64, engines: &[(SystemPreset, Engine)]) -> Res<(u64, u64, usize)> {
    let root = tracer.span("layers", 0, "");
    let id = root.id();
    let hetero = engines
        .iter()
        .find(|(p, _)| *p == SystemPreset::Hetero)
        .map(|(_, e)| e)
        .ok_or("no Hetero engine")?;
    let cpu = hetero.profiling_device();
    let mut models = Vec::new();
    for kind in ModelKind::ALL {
        let span = tracer.span("models.build", id, model_name(kind));
        let model = Model::build(kind).map_err(err)?;
        span.end();
        models.push((kind, model));
    }
    for (kind, m) in &models {
        let tag = model_name(*kind);
        let g = m.graph();
        let span = tracer.span("graph.costs", id, tag);
        black_box(pim_graph::cost::graph_costs(g).map_err(err)?);
        span.end();
        let span = tracer.span("graph.deps", id, tag);
        black_box(g.all_dependencies());
        black_box(g.topo_order().map_err(err)?);
        span.end();
        let span = tracer.span("profiler.profile", id, tag);
        black_box(profile_step(g, cpu).map_err(err)?);
        span.end();
        // Warm first: the cached metric is the hit path.
        profile_step_cached(g, cpu).map_err(err)?;
        let span = tracer.span("profiler.cached", id, tag);
        let profile = profile_step_cached(g, cpu).map_err(err)?;
        span.end();
        let span = tracer.span("select.candidates", id, tag);
        black_box(select_candidates(&profile, hetero.config().coverage));
        span.end();
        let span = tracer.span("engine.plan_preview", id, tag);
        black_box(hetero.plan_preview(g).map_err(err)?);
        span.end();
    }
    let (mut events, mut stalls) = (0u64, 0u64);
    for (preset, engine) in engines {
        for (kind, m) in &models {
            let tag = format!("{}/{}", model_name(*kind), preset_name(*preset));
            let req = request(m, STEPS, FaultPlan::none());
            let span = tracer.span("engine.execute", id, &tag);
            let out = engine.execute(&req).map_err(err)?;
            span.end();
            events += out.counters.get("events/dispatched") as u64;
            stalls += out.counters.get("events/stalls") as u64;
            let span = tracer.span("faults.plan", id, &tag);
            black_box(FaultPlan::seeded(
                seed,
                FAULT_RATE,
                makespan(&out),
                engine.config().ff_units,
            ));
            span.end();
        }
    }
    let ops = models.iter().map(|(_, m)| m.graph().op_count()).sum();
    Ok((events, stalls, ops))
}

/// Median over rounds of the per-round sum of `name` spans passing
/// `keep`, in microseconds.
fn per_round(spans: &[Span], name: &str, keep: impl Fn(&Span) -> bool) -> f64 {
    stats::median(&spans::sums_by_parent(spans, name, keep))
}

fn set_missing(out: &mut Metrics, name: &str, value: impl FnOnce() -> f64, unit: &'static str) {
    if !out.has(name) {
        out.set(name, value(), unit);
    }
}

/// Runs the layer pass and fills in every per-layer metric `out` still
/// lacks. Returns the output checks it made.
pub fn layer_pass(args: &Args, tracer: &Tracer, out: &mut Metrics) -> Res<(usize, Vec<String>)> {
    let engines: Vec<(SystemPreset, Engine)> = SystemPreset::ALL
        .iter()
        .map(|&p| (p, Engine::new(EngineConfig::preset(p))))
        .collect();
    let mark = tracer.mark();
    let mut counts = Vec::new();
    for _ in 0..ROUNDS {
        counts.push(round(tracer, args.seed, &engines)?);
    }
    let spans = tracer.since(mark);
    for name in [
        "models.build",
        "graph.costs",
        "graph.deps",
        "profiler.profile",
        "profiler.cached",
        "select.candidates",
        "engine.plan_preview",
        "engine.execute",
        "faults.plan",
    ] {
        println!(
            "{}",
            stats::describe(name, "us", &spans::micros(&spans, name))
        );
    }
    set_missing(
        out,
        "models.build_ms",
        || per_round(&spans, "models.build", |_| true) / 1e3,
        "ms",
    );
    for (metric, span) in [
        ("graph.costs_us", "graph.costs"),
        ("graph.deps_us", "graph.deps"),
        ("profiler.profile_us", "profiler.profile"),
        ("profiler.cached_us", "profiler.cached"),
        ("select.candidates_us", "select.candidates"),
    ] {
        set_missing(out, metric, || per_round(&spans, span, |_| true), "us");
    }
    let ops = counts[0].2;
    set_missing(
        out,
        "engine.plan_preview_us_per_op",
        || per_round(&spans, "engine.plan_preview", |_| true) / ops.max(1) as f64,
        "us",
    );
    for kind in ModelKind::ALL {
        let tag = format!("{}/hetero", model_name(kind));
        set_missing(
            out,
            &format!("engine.execute_ms.{}", model_name(kind)),
            || per_round(&spans, "engine.execute", |s| s.tag == tag) / 1e3,
            "ms",
        );
    }
    for preset in SystemPreset::ALL {
        let suffix = format!("/{}", preset_name(preset));
        set_missing(
            out,
            &format!("engine.execute_ms.{}", preset_name(preset)),
            || per_round(&spans, "engine.execute", |s| s.tag.ends_with(&suffix)) / 1e3,
            "ms",
        );
    }
    let (events, stalls, _) = counts[0];
    set_missing(out, "engine.events", || events as f64, "count");
    set_missing(out, "engine.stalls", || stalls as f64, "count");
    set_missing(
        out,
        "engine.ns_per_event",
        || {
            let exec_us: f64 = spans::micros(&spans, "engine.execute").iter().sum();
            let all_events: u64 = counts.iter().map(|c| c.0).sum();
            exec_us * 1e3 / all_events.max(1) as f64
        },
        "ns",
    );
    set_missing(
        out,
        "faults.plan_us",
        || stats::median(&spans::micros(&spans, "faults.plan")),
        "us",
    );
    // The layer pass runs fault-free: a workload without a fault plan
    // injects nothing.
    for name in ["faults.injected", "faults.retries", "faults.redispatches"] {
        set_missing(out, name, || 0.0, "count");
    }
    // Preparation (costs, dependency indexing, the cached profile and
    // candidate selection) as a share of one Hetero sweep's execute time.
    let prepare_us: f64 = [
        "graph.costs",
        "graph.deps",
        "profiler.cached",
        "select.candidates",
    ]
    .iter()
    .map(|name| per_round(&spans, name, |_| true))
    .sum();
    let hetero_ms = out.get("engine.execute_ms.hetero").unwrap_or(f64::NAN);
    out.set("engine.prepare_share", prepare_us / 1e3 / hetero_ms, "frac");

    let mut checks = (0, Vec::new());
    if !out.has("serve.cache_key_us") {
        let mut probe = ServeWork::new(SERVE_PROBE_JOBS, args.seed)?;
        let mark = tracer.mark();
        let mut passes = Vec::new();
        for _ in 0..SERVE_PROBE_PASSES {
            let root = tracer.span("serve-probe", 0, "");
            passes.push(probe.pass(tracer, root.id()));
        }
        let (n, failures) = probe.verify(&passes[0]);
        checks.0 += n;
        checks.1.extend(failures);
        probe.layer_metrics(&tracer.since(mark), &passes, out);
    }
    let mark = tracer.mark();
    let (n, failures) = repro_work::sections(&args.repro, &args.expected, tracer, SECTION_ROUNDS);
    checks.0 += n;
    checks.1.extend(failures);
    repro_work::section_metrics(&tracer.since(mark), out);
    Ok(checks)
}
