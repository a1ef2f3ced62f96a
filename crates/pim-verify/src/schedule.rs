//! Pass 3 — schedule legality.
//!
//! Runs the engine over a graph under a configuration, captures the
//! per-instance timeline, and replays it through the
//! [`pim_runtime::verify`] checker: dependency order (including through RC
//! recursion and the OP pipeline window), `Device::accepts` capability,
//! and resource exclusivity (no CPU slot, programmable-PIM kernel slot or
//! fixed-function unit held twice, nor past a quarantine).

use pim_common::Diagnostics;
use pim_graph::Graph;
use pim_hw::faults::FaultPlan;
use pim_runtime::engine::{Engine, EngineConfig, RunOptions, RunRequest, WorkloadSpec};

/// The pass name stamped on every diagnostic this module emits (matches
/// [`pim_runtime::verify::PASS`] — the replay checker lives there).
pub const PASS: &str = pim_runtime::verify::PASS;

/// Simulates `steps` steps of `graph` under `cfg` and verifies the
/// recorded timeline. Engine failures become error diagnostics rather
/// than propagating.
pub fn verify_schedule(
    model: &str,
    graph: &Graph,
    cfg: &EngineConfig,
    steps: usize,
) -> Diagnostics {
    let engine = Engine::new(cfg.clone());
    let workloads = [WorkloadSpec {
        graph,
        steps,
        cpu_progr_only: false,
    }];
    run_and_replay(
        &engine,
        RunRequest::new(&workloads),
        format!("{model}@{}", cfg.name),
    )
}

/// Runs `request` with its timeline and replays the timeline through
/// [`Engine::verify`], labelling every finding with `subject`.
fn run_and_replay(engine: &Engine, request: RunRequest<'_>, subject: String) -> Diagnostics {
    let request = request.with_options(RunOptions {
        timeline: true,
        ..RunOptions::default()
    });
    let mut diags = Diagnostics::new();
    match engine.execute(&request) {
        Ok(out) => match engine.verify(&request, out.timeline.as_deref().unwrap_or_default()) {
            Ok(inner) => {
                for d in inner.items() {
                    diags.push(
                        d.severity,
                        PASS,
                        format!("{subject}: {}", d.subject),
                        d.message.clone(),
                    );
                }
            }
            Err(err) => diags.error(PASS, subject, format!("verification failed: {err}")),
        },
        Err(err) => diags.error(PASS, subject, format!("simulation failed: {err}")),
    }
    diags
}

/// Simulates `steps` steps of `graph` under `cfg` with a fault plan
/// seeded from `(seed, rate)` over the configuration's fault-free
/// horizon, then replays the recorded timeline through the fault-aware
/// legality checker ([`pim_runtime::verify::check_timeline_faulted`]):
/// attempt chains, backoff spacing, plan consistency, and capacity under
/// quarantine, on top of every fault-free rule.
pub fn verify_faulted_schedule(
    model: &str,
    graph: &Graph,
    cfg: &EngineConfig,
    steps: usize,
    seed: u64,
    rate: f64,
) -> Diagnostics {
    let engine = Engine::new(cfg.clone());
    let workloads = [WorkloadSpec {
        graph,
        steps,
        cpu_progr_only: false,
    }];
    let subject = format!("{model}@{} (faults seed {seed} rate {rate})", cfg.name);
    let horizon = match engine.execute(&RunRequest::new(&workloads)) {
        Ok(out) => out.report().makespan,
        Err(err) => {
            let mut diags = Diagnostics::new();
            diags.error(
                PASS,
                subject,
                format!("fault-free simulation failed: {err}"),
            );
            return diags;
        }
    };
    let plan = FaultPlan::seeded(seed, rate, horizon, cfg.ff_units);
    run_and_replay(
        &engine,
        RunRequest::new(&workloads).with_faults(plan),
        subject,
    )
}
