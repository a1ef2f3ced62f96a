//! ISA-backend differential experiment: analytic vs interpreted timing.
//!
//! Runs every model through the Hetero preset twice — once with the
//! default analytic programmable-PIM cost model and once with the
//! [`ProgrBackend::Isa`] backend, where every ARM placement's timing and
//! energy derive from lowering the kernel to a `pim_isa` program and
//! interpreting the instruction stream — and tabulates the relative
//! makespan/energy deltas. The two models share the hardware parameters
//! but nothing else: the analytic path integrates closed-form rates, the
//! ISA path counts issue cycles per retired instruction. Small deltas are
//! therefore evidence that the closed forms describe a machine that
//! could actually execute the extracted instruction streams. Every cell
//! is deterministic: `repro isa` prints byte-identical tables across
//! runs and thread counts.

use crate::cache;
use pim_common::Result;
use pim_models::ModelKind;
use pim_runtime::engine::{
    Engine, EngineConfig, ProgrBackend, RunRequest, SystemPreset, WorkloadSpec,
};
use serde::Serialize;
use std::fmt::Write as _;

/// Documented bound on the relative analytic-vs-interpreted makespan
/// delta per model. The residue comes from lowering quantization alone —
/// loop tiling rounds element counts to whole instructions and call
/// counts to whole kernels — so it shrinks as workloads grow; the engine
/// test `isa_backend_runs_and_stays_close_to_analytic` enforces it.
pub const MAKESPAN_DELTA_BOUND: f64 = 0.05;

/// The default models `repro isa` sweeps: all seven evaluated workloads.
pub const DEFAULT_MODELS: [ModelKind; 7] = ModelKind::ALL;

/// One row of the differential table: one model under the Hetero preset,
/// simulated with the analytic and the interpreted ISA backend.
#[derive(Debug, Clone, Serialize)]
pub struct IsaCell {
    /// The simulated model.
    pub model: ModelKind,
    /// Makespan under the analytic programmable-PIM model, seconds.
    pub analytic_s: f64,
    /// Makespan under the interpreted ISA backend, seconds.
    pub interpreted_s: f64,
    /// `|interpreted - analytic| / analytic` makespan delta.
    pub makespan_delta: f64,
    /// Dynamic energy under the analytic model, joules.
    pub analytic_j: f64,
    /// Dynamic energy under the interpreted ISA backend, joules.
    pub interpreted_j: f64,
    /// `|interpreted - analytic| / analytic` energy delta.
    pub energy_delta: f64,
}

fn rel_delta(interpreted: f64, analytic: f64) -> f64 {
    if analytic == 0.0 {
        return 0.0;
    }
    (interpreted - analytic).abs() / analytic
}

/// Gathers the differential sweep: each model run under the Hetero
/// preset with both programmable-PIM backends.
///
/// # Errors
///
/// Propagates model-construction and simulation failures.
pub fn isa_delta_data(kinds: &[ModelKind], steps: usize) -> Result<Vec<IsaCell>> {
    let mut cells = Vec::new();
    for &kind in kinds {
        let model = cache::model(kind)?;
        let spec = [WorkloadSpec {
            graph: model.graph(),
            steps,
            cpu_progr_only: false,
        }];
        let analytic = Engine::new(EngineConfig::preset(SystemPreset::Hetero))
            .execute(&RunRequest::new(&spec))?
            .into_report();
        let interpreted = Engine::new(
            EngineConfig::preset(SystemPreset::Hetero).with_progr_backend(ProgrBackend::Isa),
        )
        .execute(&RunRequest::new(&spec))?
        .into_report();
        cells.push(IsaCell {
            model: kind,
            analytic_s: analytic.makespan.seconds(),
            interpreted_s: interpreted.makespan.seconds(),
            makespan_delta: rel_delta(interpreted.makespan.seconds(), analytic.makespan.seconds()),
            analytic_j: analytic.dynamic_energy.joules(),
            interpreted_j: interpreted.dynamic_energy.joules(),
            energy_delta: rel_delta(
                interpreted.dynamic_energy.joules(),
                analytic.dynamic_energy.joules(),
            ),
        });
    }
    Ok(cells)
}

/// Renders the differential table (`repro isa`).
///
/// # Errors
///
/// Propagates simulation failures.
pub fn isa_delta_table(kinds: &[ModelKind], steps: usize) -> Result<String> {
    let cells = isa_delta_data(kinds, steps)?;
    let mut out = String::new();
    writeln!(
        out,
        "ISA backend: analytic vs interpreted programmable PIM \
         (Hetero preset, {steps} steps, bound {MAKESPAN_DELTA_BOUND:.0e})"
    )
    .ok();
    writeln!(
        out,
        "  {:12} {:>13} {:>13} {:>8}   {:>13} {:>13} {:>8}",
        "model", "analytic_s", "interp_s", "dT", "analytic_J", "interp_J", "dE"
    )
    .ok();
    for c in &cells {
        writeln!(
            out,
            "  {:12} {:>13.6e} {:>13.6e} {:>7.3}%   {:>13.6e} {:>13.6e} {:>7.3}%{}",
            c.model.to_string(),
            c.analytic_s,
            c.interpreted_s,
            c.makespan_delta * 100.0,
            c.analytic_j,
            c.interpreted_j,
            c.energy_delta * 100.0,
            if c.makespan_delta > MAKESPAN_DELTA_BOUND {
                "  OUT OF BOUND"
            } else {
                ""
            },
        )
        .ok();
    }
    let worst = cells
        .iter()
        .map(|c| c.makespan_delta)
        .fold(0.0f64, f64::max);
    writeln!(
        out,
        "\nworst makespan delta: {:.3}% ({})",
        worst * 100.0,
        if worst <= MAKESPAN_DELTA_BOUND {
            "within bound"
        } else {
            "OUT OF BOUND"
        }
    )
    .ok();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isa_table_is_deterministic_and_within_bound() {
        let kinds = [ModelKind::AlexNet, ModelKind::Lstm];
        let a = isa_delta_table(&kinds, 2).unwrap();
        let b = isa_delta_table(&kinds, 2).unwrap();
        assert_eq!(a, b, "repeat runs must render byte-identically");
        assert!(!a.contains("OUT OF BOUND"), "{a}");
        for c in isa_delta_data(&kinds, 2).unwrap() {
            assert!(
                c.makespan_delta <= MAKESPAN_DELTA_BOUND,
                "{}: delta {} above bound",
                c.model,
                c.makespan_delta
            );
            assert!(c.interpreted_s > 0.0 && c.analytic_s > 0.0);
        }
    }
}
