//! Order-invariance fuzzing and schedule-search experiments.
//!
//! The `repro fuzz` subcommand sweeps models × engine presets × seeded
//! tie-break permutations through the pass-5 differential driver
//! ([`pim_runtime::fuzz`]) and tabulates the result — every cell must
//! come back clean (report identical to the stable order, timeline
//! legal, counters matching). The `repro search` subcommand runs the
//! [`pim_runtime::search`] beam over the legal-but-free
//! [`pim_runtime::fuzz::TieBreak::Priority`] order
//! space and prints the "oracle gap": how much makespan the best-found
//! schedule saves over the paper heuristic, with the best timeline
//! replayed through the legality checker.

use crate::cache;
use pim_common::diag::Diagnostics;
use pim_common::Result;
use pim_models::ModelKind;
use pim_runtime::engine::{Engine, EngineConfig, RunRequest, SystemPreset, WorkloadSpec};
use pim_runtime::fuzz::fuzz_orders;
use pim_runtime::search::{beam_search, SearchConfig};
use serde::Serialize;
use std::fmt::Write as _;

/// The default models `repro fuzz` sweeps when `--models` is absent
/// (one CNN, one RNN — matching the fault sweep).
pub const DEFAULT_FUZZ_MODELS: [ModelKind; 2] = [ModelKind::AlexNet, ModelKind::Lstm];

/// The default models `repro search` sweeps (a third family beyond the
/// fuzz pair: GAN training is the most pipeline-sensitive workload).
pub const DEFAULT_SEARCH_MODELS: [ModelKind; 3] =
    [ModelKind::AlexNet, ModelKind::Dcgan, ModelKind::Lstm];

/// One cell of the fuzz sweep: a (model, preset) pair fuzzed across N
/// permuted orders.
#[derive(Debug, Clone, Serialize)]
pub struct FuzzCell {
    /// The simulated model.
    pub model: ModelKind,
    /// The engine-backed system preset.
    pub preset: SystemPreset,
    /// Permuted orders compared against the stable baseline.
    pub orders: usize,
    /// Orders that diverged (must be 0).
    pub divergent: usize,
}

/// Runs the order-invariance fuzz over every (model, preset) cell and
/// returns the per-cell tallies plus all divergence diagnostics.
///
/// # Errors
///
/// Propagates model-construction and simulation failures; divergences
/// become diagnostics, not errors.
pub fn fuzz_data(
    kinds: &[ModelKind],
    presets: &[SystemPreset],
    seeds: usize,
    base_seed: u64,
    steps: usize,
) -> Result<(Vec<FuzzCell>, Diagnostics)> {
    let mut cells = Vec::new();
    let mut diags = Diagnostics::new();
    for &kind in kinds {
        let model = cache::model(kind)?;
        let spec = [WorkloadSpec {
            graph: model.graph(),
            steps,
            cpu_progr_only: false,
        }];
        for &preset in presets {
            let engine = Engine::new(EngineConfig::preset(preset));
            let subject = format!("{kind}@{}", preset.name());
            let outcome = fuzz_orders(&engine, &spec, seeds, base_seed, &subject)?;
            cells.push(FuzzCell {
                model: kind,
                preset,
                orders: outcome.orders,
                divergent: outcome.divergent,
            });
            diags.extend(outcome.diags);
        }
    }
    Ok((cells, diags))
}

/// Renders the fuzz sweep (`repro fuzz`). The last line is a verdict:
/// `order invariance: PASS` when every cell came back clean.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn fuzz_table(
    kinds: &[ModelKind],
    presets: &[SystemPreset],
    seeds: usize,
    base_seed: u64,
    steps: usize,
) -> Result<String> {
    let (cells, diags) = fuzz_data(kinds, presets, seeds, base_seed, steps)?;
    let mut out = String::new();
    writeln!(
        out,
        "Order-invariance fuzz: {seeds} permuted orders per (model, preset) \
         (base seed {base_seed}, {steps} steps)"
    )
    .ok();
    let mut current = None;
    for c in &cells {
        if current != Some(c.model) {
            current = Some(c.model);
            writeln!(out, "\n== {} ==", c.model).ok();
        }
        writeln!(
            out,
            "  {:<12} orders={:>3}  divergent={:>2}  {}",
            c.preset.name(),
            c.orders,
            c.divergent,
            if c.divergent == 0 { "ok" } else { "DIVERGED" },
        )
        .ok();
    }
    if !diags.is_clean() {
        writeln!(out, "\n{}", diags.render_text()).ok();
    }
    let total: usize = cells.iter().map(|c| c.divergent).sum();
    writeln!(
        out,
        "\norder invariance: {}",
        if total == 0 && diags.is_clean() {
            "PASS"
        } else {
            "FAIL"
        }
    )
    .ok();
    Ok(out)
}

/// One row of the oracle-gap table: beam search vs the paper heuristic
/// on one model.
#[derive(Debug, Clone, Serialize)]
pub struct GapCell {
    /// The simulated model.
    pub model: ModelKind,
    /// The engine-backed system preset searched over.
    pub preset: SystemPreset,
    /// Makespan of the stable (paper-heuristic) schedule, seconds.
    pub stable_s: f64,
    /// Best makespan the beam found, seconds.
    pub best_s: f64,
    /// Fraction of the stable makespan saved (0 when never beaten).
    pub gap: f64,
    /// Distinct orders the beam evaluated.
    pub evaluated: usize,
    /// Display form of the winning order.
    pub best_order: String,
    /// Whether the best-found timeline replayed clean through the
    /// schedule-legality checker (must be true).
    pub legal: bool,
}

/// Runs the beam search per model on `preset` and legality-replays each
/// winner.
///
/// # Errors
///
/// Propagates model-construction and simulation failures.
pub fn oracle_gap_data(
    kinds: &[ModelKind],
    preset: SystemPreset,
    cfg: &SearchConfig,
    steps: usize,
) -> Result<Vec<GapCell>> {
    let mut cells = Vec::new();
    for &kind in kinds {
        let model = cache::model(kind)?;
        let spec = [WorkloadSpec {
            graph: model.graph(),
            steps,
            cpu_progr_only: false,
        }];
        let engine = Engine::new(EngineConfig::preset(preset));
        let outcome = beam_search(&engine, &spec, cfg)?;
        let replay = engine.verify(&RunRequest::new(&spec), &outcome.best_timeline)?;
        cells.push(GapCell {
            model: kind,
            preset,
            stable_s: outcome.stable_makespan.seconds(),
            best_s: outcome.best_makespan.seconds(),
            gap: outcome.gap(),
            evaluated: outcome.evaluated,
            best_order: outcome.best_order.describe(),
            legal: replay.is_clean(),
        });
    }
    Ok(cells)
}

/// Renders the oracle-gap table (`repro search`).
///
/// # Errors
///
/// Propagates simulation failures.
pub fn oracle_gap_table(
    kinds: &[ModelKind],
    preset: SystemPreset,
    cfg: &SearchConfig,
    steps: usize,
) -> Result<String> {
    let cells = oracle_gap_data(kinds, preset, cfg, steps)?;
    let mut out = String::new();
    writeln!(
        out,
        "Oracle gap: beam search over the priority order space vs the paper heuristic\n\
         (preset {}, beam width {}, {} rounds, branching {}, seed {}, {steps} steps)",
        preset.name(),
        cfg.beam_width,
        cfg.rounds,
        cfg.branching,
        cfg.seed,
    )
    .ok();
    writeln!(
        out,
        "\n  {:<10} {:>14} {:>14} {:>8} {:>6}  {:<18} legal",
        "model", "heuristic (s)", "best found (s)", "gap", "evals", "best order"
    )
    .ok();
    for c in &cells {
        writeln!(
            out,
            "  {:<10} {:>14.6e} {:>14.6e} {:>7.3}% {:>6}  {:<18} {}",
            c.model.to_string(),
            c.stable_s,
            c.best_s,
            c.gap * 100.0,
            c.evaluated,
            c.best_order,
            if c.legal { "ok" } else { "ILLEGAL" },
        )
        .ok();
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_runtime::fuzz::TieBreak;

    #[test]
    fn fuzz_sweep_is_clean_and_deterministic_on_alexnet() {
        let kinds = [ModelKind::AlexNet];
        let a = fuzz_table(&kinds, &SystemPreset::ALL, 4, 1, 2).unwrap();
        let b = fuzz_table(&kinds, &SystemPreset::ALL, 4, 1, 2).unwrap();
        assert_eq!(a, b, "same seed must render byte-identically");
        assert!(a.contains("order invariance: PASS"), "{a}");
    }

    #[test]
    fn fuzz_preset_filter_restricts_the_sweep() {
        let kinds = [ModelKind::AlexNet];
        let (cells, diags) = fuzz_data(
            &kinds,
            &[SystemPreset::Hetero, SystemPreset::ProgrOnly],
            2,
            1,
            1,
        )
        .unwrap();
        assert_eq!(cells.len(), 2);
        assert!(diags.is_clean(), "{}", diags.render_text());
        assert!(cells.iter().all(|c| c.divergent == 0));
    }

    #[test]
    fn negative_control_is_caught_with_divergent_entry() {
        // A Priority order legally reorders the schedule; the pass-5
        // comparison must flag it and name the first divergent entry —
        // exactly how a reintroduced HashMap-tie bug would surface.
        let model = cache::model(ModelKind::AlexNet).unwrap();
        let spec = [WorkloadSpec {
            graph: model.graph(),
            steps: 2,
            cpu_progr_only: false,
        }];
        let engine = Engine::new(EngineConfig::preset(SystemPreset::Hetero));
        let diags = pim_runtime::fuzz::check_order_invariance(
            &engine,
            &spec,
            &[TieBreak::Priority(7)],
            "AlexNet@Hetero",
        )
        .unwrap()
        .diags;
        assert!(!diags.is_clean(), "priority order must diverge");
        let text = diags.render_text();
        assert!(
            text.contains("first divergent timeline entry"),
            "diagnostic must pinpoint the divergence: {text}"
        );
        assert!(
            text.contains("order="),
            "diagnostic names the order: {text}"
        );
    }

    #[test]
    fn oracle_gap_rows_are_legal() {
        let cells = oracle_gap_data(
            &[ModelKind::AlexNet],
            SystemPreset::Hetero,
            &SearchConfig {
                beam_width: 2,
                rounds: 1,
                branching: 3,
                seed: 1,
            },
            2,
        )
        .unwrap();
        assert_eq!(cells.len(), 1);
        assert!(cells[0].legal, "beam winner must replay legally");
        assert!(cells[0].best_s <= cells[0].stable_s + 1e-12);
    }
}
