//! Fault-injection experiments: graceful degradation under seeded faults.
//!
//! Sweeps the engine-backed presets across fault rates with
//! [`pim_hw::faults::FaultPlan::seeded`] plans and tabulates how makespan
//! and energy degrade as transients, link timeouts, stragglers, and
//! permanent faults accumulate — the robustness counterpart of the
//! paper's performance figures. Every cell is deterministic in
//! `(seed, rate)`: the `repro faults` subcommand prints byte-identical
//! tables across runs.

use crate::cache;
use pim_common::Result;
use pim_hw::faults::FaultPlan;
use pim_models::ModelKind;
use pim_runtime::engine::{Engine, EngineConfig, RunRequest, SystemPreset, WorkloadSpec};
use serde::Serialize;
use std::fmt::Write as _;

/// The default fault rates `repro faults` sweeps when `--rate` is absent.
pub const DEFAULT_RATES: [f64; 5] = [0.0, 0.01, 0.05, 0.1, 0.2];

/// The default models `repro faults` sweeps (one CNN, one RNN).
pub const DEFAULT_MODELS: [ModelKind; 2] = [ModelKind::AlexNet, ModelKind::Lstm];

/// One cell of the degradation sweep: a (model, preset, rate) run.
#[derive(Debug, Clone, Serialize)]
pub struct DegradationCell {
    /// The simulated model.
    pub model: ModelKind,
    /// The engine-backed system preset.
    pub preset: SystemPreset,
    /// The seeded fault rate (0 is the fault-free baseline).
    pub rate: f64,
    /// End-to-end makespan in seconds.
    pub makespan_s: f64,
    /// Makespan over the preset's fault-free makespan.
    pub slowdown: f64,
    /// Dynamic energy in joules.
    pub energy_j: f64,
    /// `faults/injected` counter (transients + timeouts + quarantines).
    pub injected: u64,
    /// `faults/retries` counter (transients + strike kills).
    pub retries: u64,
    /// `faults/redispatches` counter (link timeouts).
    pub redispatches: u64,
    /// `faults/quarantined_units` counter (fixed-function units lost; the
    /// programmable PIM counts as one unit).
    pub quarantined: u64,
    /// The preset the configuration collapsed to before the run, if the
    /// plan quarantined a whole complement up front.
    pub degraded: Option<&'static str>,
}

/// Gathers the degradation sweep: every engine preset for every model at
/// every rate, faulted with `FaultPlan::seeded(seed, rate, horizon, ..)`
/// where `horizon` is that (model, preset)'s fault-free makespan.
///
/// # Errors
///
/// Propagates model-construction and simulation failures.
pub fn degradation_data(
    kinds: &[ModelKind],
    rates: &[f64],
    seed: u64,
    steps: usize,
) -> Result<Vec<DegradationCell>> {
    let mut cells = Vec::new();
    for &kind in kinds {
        let model = cache::model(kind)?;
        let spec = [WorkloadSpec {
            graph: model.graph(),
            steps,
            cpu_progr_only: false,
        }];
        for preset in SystemPreset::ALL {
            let engine = Engine::new(EngineConfig::preset(preset));
            let baseline = engine.execute(&RunRequest::new(&spec))?.into_report();
            for &rate in rates {
                let plan = if rate == 0.0 {
                    FaultPlan::none()
                } else {
                    FaultPlan::seeded(seed, rate, baseline.makespan, engine.config().ff_units)
                };
                let out = engine.execute(&RunRequest::new(&spec).with_faults(plan))?;
                cells.push(DegradationCell {
                    model: kind,
                    preset,
                    rate,
                    makespan_s: out.report().makespan.seconds(),
                    slowdown: out.report().makespan / baseline.makespan,
                    energy_j: out.report().dynamic_energy.joules(),
                    injected: out.counters.get("faults/injected") as u64,
                    retries: out.counters.get("faults/retries") as u64,
                    redispatches: out.counters.get("faults/redispatches") as u64,
                    quarantined: out.counters.get("faults/quarantined_units") as u64,
                    degraded: out.degraded,
                });
            }
        }
    }
    Ok(cells)
}

/// Renders the degradation table (`repro faults`).
///
/// # Errors
///
/// Propagates simulation failures.
pub fn degradation_table(
    kinds: &[ModelKind],
    rates: &[f64],
    seed: u64,
    steps: usize,
) -> Result<String> {
    let cells = degradation_data(kinds, rates, seed, steps)?;
    let mut out = String::new();
    writeln!(
        out,
        "Fault degradation: makespan/energy vs fault rate (seed {seed}, {steps} steps)"
    )
    .ok();
    let mut current = None;
    for c in &cells {
        if current != Some((c.model, c.preset)) {
            current = Some((c.model, c.preset));
            writeln!(out, "\n== {} @ {} ==", c.model, c.preset.name()).ok();
        }
        writeln!(
            out,
            "  rate={:5.2}  makespan={:>10.4e}s (x{:5.2})  energy={:>10.4e}J  \
             inj={:>4} retry={:>4} redisp={:>4} quar={:>4}{}",
            c.rate,
            c.makespan_s,
            c.slowdown,
            c.energy_j,
            c.injected,
            c.retries,
            c.redispatches,
            c.quarantined,
            match c.degraded {
                Some(to) => format!("  degraded->{to}"),
                None => String::new(),
            },
        )
        .ok();
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degradation_table_is_deterministic_and_monotone_at_zero() {
        let kinds = [ModelKind::AlexNet];
        let rates = [0.0, 0.1];
        let a = degradation_table(&kinds, &rates, 5, 2).unwrap();
        let b = degradation_table(&kinds, &rates, 5, 2).unwrap();
        assert_eq!(a, b, "same seed must render byte-identically");
        let cells = degradation_data(&kinds, &rates, 5, 2).unwrap();
        for c in cells.iter().filter(|c| c.rate == 0.0) {
            assert_eq!(
                c.slowdown, 1.0,
                "{:?}: zero rate must match baseline",
                c.preset
            );
            assert_eq!(c.injected, 0);
        }
        // CPU never faults: its makespan is rate-invariant.
        let cpu: Vec<_> = cells
            .iter()
            .filter(|c| c.preset == SystemPreset::CpuOnly)
            .collect();
        assert!(cpu.windows(2).all(|w| w[0].makespan_s == w[1].makespan_s));
    }
}
