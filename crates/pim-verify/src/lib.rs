//! Multi-pass static checker for the hetero-pim stack.
//!
//! The paper's correctness story rests on invariants the simulator itself
//! never re-checks: the runtime must preserve operation dependencies when
//! it applies RC/OP (§IV), binary generation must split kernels without
//! losing work (Fig. 4), and the scheduler must only place ops on devices
//! that can execute them and that are idle. This crate makes each
//! invariant an explicit analysis pass producing structured
//! [`Diagnostic`](pim_common::Diagnostic) values:
//!
//! * [`graph`] — graph well-formedness: cycles, dangling references,
//!   producer/consumer shape agreement, liveness anomalies,
//! * [`kir`] — KIR/binary soundness: region validity, `CallFixed`
//!   resolution, multiply/add conservation through extraction,
//! * [`schedule`] — schedule legality: timeline replay against dependency
//!   order, device capability, and resource exclusivity,
//! * [`report`] — report invariants: non-negative quantities, breakdowns
//!   summing to totals,
//! * [`orders`] — order invariance: seeded tie-break permutations must
//!   reproduce the stable execution report, and the stable order must
//!   reproduce itself (opt-in via `--orders N,SEED`),
//! * [`isa`] — ISA ground truth: every kernel lowered to a `pim_isa`
//!   program, validated, interpreted, and its exact tallies matched
//!   bit-for-bit against the Fig. 4 extraction (opt-in via `--isa`).
//!
//! The `pim-verify` binary runs every pass over all seven model graphs
//! under every engine configuration; `Severity::Error` findings fail the
//! run (and CI).
//!
//! # Examples
//!
//! ```
//! use pim_models::{Model, ModelKind};
//! use pim_verify::verify_graph;
//!
//! # fn main() -> pim_common::Result<()> {
//! let model = Model::build_with_batch(ModelKind::AlexNet, 2)?;
//! let diags = verify_graph("AlexNet", model.graph());
//! assert!(diags.is_clean(), "{}", diags.render_text());
//! # Ok(())
//! # }
//! ```
#![forbid(unsafe_code)]

pub mod graph;
pub mod isa;
pub mod kir;
pub mod orders;
pub mod report;
pub mod schedule;

use pim_common::{Diagnostics, Result};
use pim_hw::gpu::GpuDevice;
use pim_models::{Model, ModelKind};
use pim_runtime::engine::{Engine, RunRequest, WorkloadSpec};
use pim_sim::baselines::simulate_neurocube;
use pim_sim::gpu::simulate_gpu;

pub use graph::verify_graph;
pub use isa::{verify_isa, verify_program, verify_program_tallies};
pub use kir::{verify_binaries, verify_kernel_source};
pub use orders::verify_orders;
pub use report::verify_report;
pub use schedule::{engine_configs, verify_faulted_schedule, verify_schedule};

/// Runs every pass over one model: graph and KIR on its training-step
/// graph, then schedule + report under each engine configuration, and
/// report alone for the analytic baselines (GPU where the paper measured
/// a utilization, Neurocube always).
///
/// # Errors
///
/// Propagates model-construction failures; analysis findings are returned
/// as diagnostics, never as errors.
pub fn verify_model(kind: ModelKind, batch: usize, steps: usize) -> Result<Diagnostics> {
    let model = Model::build_with_batch(kind, batch)?;
    let name = kind.name();
    let mut diags = Diagnostics::new();
    diags.extend(verify_graph(name, model.graph()));
    diags.extend(verify_binaries(name, model.graph()));
    for cfg in engine_configs() {
        diags.extend(verify_schedule(name, model.graph(), &cfg, steps));
        let engine = Engine::new(cfg);
        match engine.execute(&RunRequest::new(&[WorkloadSpec {
            graph: model.graph(),
            steps,
            cpu_progr_only: false,
        }])) {
            Ok(out) => diags.extend(verify_report(out.report())),
            Err(err) => diags.error(
                report::PASS,
                format!("{name}@{}", engine.config().name),
                format!("simulation failed: {err}"),
            ),
        }
    }
    if kind.gpu_utilization().is_some() {
        match simulate_gpu(&model, &GpuDevice::gtx_1080_ti(), steps) {
            Ok(rep) => diags.extend(verify_report(&rep)),
            Err(err) => diags.error(
                report::PASS,
                format!("{name}@GPU"),
                format!("simulation failed: {err}"),
            ),
        }
    }
    match simulate_neurocube(&model, steps) {
        Ok(rep) => diags.extend(verify_report(&rep)),
        Err(err) => diags.error(
            report::PASS,
            format!("{name}@Neurocube"),
            format!("simulation failed: {err}"),
        ),
    }
    Ok(diags)
}

/// Runs the fault-aware schedule pass over one model: every engine
/// configuration simulated under a fault plan seeded from `(seed, rate)`,
/// each recorded timeline replayed through the fault-aware legality
/// checker.
///
/// # Errors
///
/// Propagates model-construction failures; analysis findings are returned
/// as diagnostics, never as errors.
pub fn verify_model_faults(
    kind: ModelKind,
    batch: usize,
    steps: usize,
    seed: u64,
    rate: f64,
) -> Result<Diagnostics> {
    let model = Model::build_with_batch(kind, batch)?;
    let name = kind.name();
    let mut diags = Diagnostics::new();
    for cfg in engine_configs() {
        diags.extend(verify_faulted_schedule(
            name,
            model.graph(),
            &cfg,
            steps,
            seed,
            rate,
        ));
    }
    Ok(diags)
}

/// Runs the order-invariance pass over one model: every engine
/// configuration fuzzed with `orders` seeded tie-break permutations
/// derived from `seed`, each compared against the stable order.
///
/// # Errors
///
/// Propagates model-construction failures; analysis findings are returned
/// as diagnostics, never as errors.
pub fn verify_model_orders(
    kind: ModelKind,
    batch: usize,
    steps: usize,
    orders: usize,
    seed: u64,
) -> Result<Diagnostics> {
    let model = Model::build_with_batch(kind, batch)?;
    let name = kind.name();
    let mut diags = Diagnostics::new();
    for cfg in engine_configs() {
        diags.extend(verify_orders(
            name,
            model.graph(),
            &cfg,
            steps,
            orders,
            seed,
        ));
    }
    Ok(diags)
}

/// Runs the ISA ground-truth pass over one model: every kernel lowered,
/// validated, interpreted, and its exact tallies matched against the
/// Fig. 4 extraction.
///
/// # Errors
///
/// Propagates model-construction failures; analysis findings are returned
/// as diagnostics, never as errors.
pub fn verify_model_isa(kind: ModelKind, batch: usize) -> Result<Diagnostics> {
    let model = Model::build_with_batch(kind, batch)?;
    Ok(verify_isa(kind.name(), model.graph()))
}
