//! The experiment harness: one function per table/figure of the paper's
//! evaluation.
//!
//! Each experiment is split into a `*_data` function that gathers
//! structured rows and a same-named render function that formats them
//! through the shared `Renderer`, producing the printable text the
//! `repro` binary emits and EXPERIMENTS.md records. Figure scripts and
//! tests can consume the rows directly instead of re-parsing text.

use crate::ablations::{batch_sweep, coverage_sweep, cube_scaling, gpu_attached};
use crate::baselines::simulate_neurocube;
use crate::cache;
use crate::configs::SystemConfig;
use crate::mixed::{corun_cases, fig16_cases, CoRunResult};
use pim_common::units::edp;
use pim_common::Result;
use pim_hw::power::{progr_scaling_points, LogicDieBudget};
use pim_models::ModelKind;
use pim_runtime::engine::{EngineConfig, SystemPreset};
use pim_runtime::par::par_map;
use pim_runtime::profiler::profile_step;
use pim_runtime::select::{classify, OpClass};
use pim_runtime::stats::ExecutionReport;
use serde::Serialize;
use std::fmt;
use std::fmt::Write as _;

/// Steps simulated per figure (enough to amortize pipeline fill).
const STEPS: usize = 3;

/// Incremental renderer for one experiment's printable output: a title
/// line, `== header ==` group separators, and two-space-indented rows —
/// the shared shape of every table/figure section.
struct Renderer {
    out: String,
}

impl Renderer {
    /// Starts a section with its title line.
    fn new(title: impl fmt::Display) -> Self {
        let mut out = String::new();
        writeln!(out, "{title}").ok();
        Renderer { out }
    }

    /// Emits a `== header ==` group separator preceded by a blank line.
    fn group(&mut self, header: impl fmt::Display) {
        writeln!(self.out, "\n== {header} ==").ok();
    }

    /// Emits a `== header ==   annotation` group separator.
    fn group_annotated(&mut self, header: impl fmt::Display, annotation: impl fmt::Display) {
        writeln!(self.out, "\n== {header} ==   {annotation}").ok();
    }

    /// Emits an unindented line (sub-headers, sweep captions).
    fn line(&mut self, line: impl fmt::Display) {
        writeln!(self.out, "{line}").ok();
    }

    /// Emits one two-space-indented data row.
    fn row(&mut self, row: impl fmt::Display) {
        writeln!(self.out, "  {row}").ok();
    }

    /// The rendered section.
    fn finish(self) -> String {
        self.out
    }
}

fn run_model(kind: ModelKind, config: &SystemConfig, steps: usize) -> Result<ExecutionReport> {
    let model = cache::model(kind)?;
    cache::cell_report(&model, config, steps)
}

/// One op-type share row of Table I.
#[derive(Debug, Clone, Serialize)]
pub struct OpShareRow {
    /// TensorFlow op name.
    pub name: &'static str,
    /// Share of the step's total (time or memory accesses), in percent.
    pub share_pct: f64,
    /// Invocations in one step.
    pub invocations: usize,
}

/// Table I rows for one model: top-5 ops by time and by memory accesses.
#[derive(Debug, Clone, Serialize)]
pub struct Table1Model {
    /// The profiled model.
    pub kind: ModelKind,
    /// Top 5 compute-time consumers.
    pub ci: Vec<OpShareRow>,
    /// Top 5 memory-access producers.
    pub mi: Vec<OpShareRow>,
}

/// Gathers Table I: top-5 compute-intensive and memory-intensive op types
/// for VGG-19, AlexNet, and DCGAN.
///
/// # Errors
///
/// Propagates profiling failures.
pub fn table1_data() -> Result<Vec<Table1Model>> {
    let mut models = Vec::new();
    for kind in [ModelKind::Vgg19, ModelKind::AlexNet, ModelKind::Dcgan] {
        let model = cache::model(kind)?;
        let profile = profile_step(model.graph(), &pim_hw::cpu::CpuDevice::xeon_e5_2630_v3())?;
        let total_t = profile.total_time();
        let total_m = profile.total_memory_accesses() as f64;
        let rows = profile.by_name();
        let ci = rows
            .iter()
            .take(5)
            .map(|r| OpShareRow {
                name: r.name,
                share_pct: 100.0 * (r.time / total_t),
                invocations: r.invocations,
            })
            .collect();
        let mut by_mem = rows.clone();
        by_mem.sort_by_key(|r| std::cmp::Reverse(r.memory_accesses));
        let mi = by_mem
            .iter()
            .take(5)
            .map(|r| OpShareRow {
                name: r.name,
                share_pct: 100.0 * r.memory_accesses as f64 / total_m,
                invocations: r.invocations,
            })
            .collect();
        models.push(Table1Model { kind, ci, mi });
    }
    Ok(models)
}

/// Renders Table I.
///
/// # Errors
///
/// Propagates profiling failures.
pub fn table1() -> Result<String> {
    let mut r = Renderer::new("Table I: operation profiling (one training step)");
    for m in table1_data()? {
        r.group(m.kind);
        r.line("Top 5 CI ops                    Time%   #Inv");
        for row in &m.ci {
            r.row(format_args!(
                "{:28} {:6.2}  {:5}",
                row.name, row.share_pct, row.invocations
            ));
        }
        r.line("Top 5 MI ops                    Mem%    #Inv");
        for row in &m.mi {
            r.row(format_args!(
                "{:28} {:6.2}  {:5}",
                row.name, row.share_pct, row.invocations
            ));
        }
    }
    Ok(r.finish())
}

/// Fig. 2 census for one model: ops per intensity quadrant.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct ClassCensus {
    /// The classified model.
    pub kind: ModelKind,
    /// Compute- and memory-intensive (the offload target).
    pub ci_mi: usize,
    /// Memory-intensive only.
    pub mi_only: usize,
    /// Compute-intensive only.
    pub ci_only: usize,
    /// Neither.
    pub neither: usize,
}

/// Gathers Fig. 2: the four-quadrant classification census per model.
///
/// # Errors
///
/// Propagates profiling failures.
pub fn fig2_data() -> Result<Vec<ClassCensus>> {
    let mut census = Vec::new();
    for kind in ModelKind::CNNS {
        let model = cache::model(kind)?;
        let profile = profile_step(model.graph(), &pim_hw::cpu::CpuDevice::xeon_e5_2630_v3())?;
        let classes = classify(&profile);
        let count = |c: OpClass| classes.iter().filter(|(_, x)| *x == c).count();
        census.push(ClassCensus {
            kind,
            ci_mi: count(OpClass::ComputeAndMemoryIntensive),
            mi_only: count(OpClass::MemoryIntensiveOnly),
            ci_only: count(OpClass::ComputeIntensiveOnly),
            neither: count(OpClass::Neither),
        });
    }
    Ok(census)
}

/// Renders Fig. 2.
///
/// # Errors
///
/// Propagates profiling failures.
pub fn fig2() -> Result<String> {
    let mut r = Renderer::new("Fig. 2: op classification (CI&MI / MI-only / CI-only / neither)");
    for c in fig2_data()? {
        r.row(format_args!(
            "{:14} {:4} / {:4} / {:4} / {:4}",
            c.kind.name(),
            c.ci_mi,
            c.mi_only,
            c.ci_only,
            c.neither,
        ));
    }
    Ok(r.finish())
}

/// One configuration's row of the Fig. 8/9 breakdown.
#[derive(Debug, Clone, Serialize)]
pub struct BreakdownRow {
    /// Configuration name.
    pub config: String,
    /// Seconds per training step.
    pub step_seconds: f64,
    /// Computation fraction of the makespan.
    pub op: f64,
    /// Data-movement fraction.
    pub dm: f64,
    /// Synchronization fraction.
    pub sync: f64,
    /// Dynamic energy normalized to Hetero PIM.
    pub energy_norm: f64,
    /// Fixed-function pool utilization.
    pub util: f64,
}

/// Fig. 8/9 rows for one model.
#[derive(Debug, Clone, Serialize)]
pub struct ModelBreakdown {
    /// The simulated model.
    pub kind: ModelKind,
    /// Its paper batch size.
    pub batch: usize,
    /// One row per evaluated configuration.
    pub rows: Vec<BreakdownRow>,
}

/// Gathers Fig. 8 + Fig. 9: execution-time breakdown and normalized
/// dynamic energy for the 5 models x 5 configurations.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn fig8_fig9_data() -> Result<Vec<ModelBreakdown>> {
    // Simulate the whole (model x configuration) grid as one batch across
    // threads — identical rows at every worker count. Every cell lands in
    // the sweep cache, so the per-model normalization below is all hits.
    let set = SystemConfig::evaluation_set();
    let grid: Vec<(ModelKind, SystemConfig)> = ModelKind::CNNS
        .iter()
        .flat_map(|&kind| set.iter().map(move |config| (kind, config.clone())))
        .collect();
    let cells = par_map(&grid, |(kind, config)| run_model(*kind, config, STEPS));

    let mut breakdowns = Vec::new();
    let mut cells = cells.into_iter();
    for kind in ModelKind::CNNS {
        let hetero = run_model(kind, &SystemConfig::hetero_pim(), STEPS)?;
        let mut rows = Vec::new();
        for config in &set {
            let r = cells.next().expect("one cell per grid entry")?;
            let (op, dm, sync) = r.breakdown_fractions();
            rows.push(BreakdownRow {
                config: config.name().to_string(),
                step_seconds: r.per_step_time().seconds(),
                op,
                dm,
                sync,
                energy_norm: r.dynamic_energy / hetero.dynamic_energy,
                util: r.ff_utilization,
            });
        }
        breakdowns.push(ModelBreakdown {
            kind,
            batch: kind.paper_batch_size(),
            rows,
        });
    }
    Ok(breakdowns)
}

/// Renders Fig. 8/9.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn fig8_fig9() -> Result<String> {
    let mut r = Renderer::new(
        "Fig. 8/9: per-step time breakdown and energy (energy normalized to Hetero PIM)",
    );
    for m in fig8_fig9_data()? {
        r.group(format_args!("{} (batch {})", m.kind, m.batch));
        for row in &m.rows {
            r.row(format_args!(
                "{:10} step={:>9.4}s  op/dm/sync = {:4.2}/{:4.2}/{:4.2}  E_norm={:6.2}  util={:4.2}",
                row.config, row.step_seconds, row.op, row.dm, row.sync, row.energy_norm, row.util,
            ));
        }
    }
    Ok(r.finish())
}

/// One model's Fig. 10 ratios (Neurocube over Hetero PIM).
#[derive(Debug, Clone, Copy, Serialize)]
pub struct NeurocubeRatio {
    /// The simulated model.
    pub kind: ModelKind,
    /// Neurocube makespan over Hetero PIM makespan.
    pub time_ratio: f64,
    /// Neurocube dynamic energy over Hetero PIM dynamic energy.
    pub energy_ratio: f64,
}

/// Gathers Fig. 10: performance and energy versus Neurocube (normalized
/// to Hetero PIM = 1).
///
/// # Errors
///
/// Propagates simulation failures.
pub fn fig10_data() -> Result<Vec<NeurocubeRatio>> {
    let mut ratios = Vec::new();
    for kind in ModelKind::CNNS {
        let model = cache::model(kind)?;
        let hetero = cache::cell_report(&model, &SystemConfig::hetero_pim(), STEPS)?;
        let nc = simulate_neurocube(&model, STEPS)?;
        ratios.push(NeurocubeRatio {
            kind,
            time_ratio: nc.makespan / hetero.makespan,
            energy_ratio: nc.dynamic_energy / hetero.dynamic_energy,
        });
    }
    Ok(ratios)
}

/// Renders Fig. 10.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn fig10() -> Result<String> {
    let mut r = Renderer::new("Fig. 10: Neurocube / Hetero PIM (time and energy ratios)");
    for ratio in fig10_data()? {
        r.row(format_args!(
            "{:14} time x{:6.1}   energy x{:6.1}",
            ratio.kind.name(),
            ratio.time_ratio,
            ratio.energy_ratio,
        ));
    }
    Ok(r.finish())
}

/// One frequency-scaling point of Fig. 11/17.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct FreqPoint {
    /// Stack-frequency multiplier (1x/2x/4x).
    pub multiplier: f64,
    /// Seconds per step at this frequency.
    pub step_seconds: f64,
    /// Speedup over the GPU, in percent (negative when slower).
    pub vs_gpu_pct: f64,
    /// Energy-delay product per step.
    pub edp_per_step: f64,
    /// Average full-system power in watts.
    pub power_watts: f64,
}

/// Fig. 11/17 rows for one model, with its GPU reference.
#[derive(Debug, Clone, Serialize)]
pub struct FreqScaling {
    /// The simulated model.
    pub kind: ModelKind,
    /// GPU seconds per step.
    pub gpu_step_seconds: f64,
    /// GPU average power in watts.
    pub gpu_power_watts: f64,
    /// Hetero PIM at each frequency multiplier.
    pub points: Vec<FreqPoint>,
}

/// Gathers Fig. 11 + Fig. 17: frequency scaling (1x/2x/4x) — execution
/// time against the GPU, EDP, and power.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn fig11_fig17_data() -> Result<Vec<FreqScaling>> {
    let mut scalings = Vec::new();
    for kind in ModelKind::CNNS {
        let gpu = run_model(kind, &SystemConfig::Gpu, STEPS)?;
        let mut points = Vec::new();
        for mult in [1.0, 2.0, 4.0] {
            let cfg = SystemConfig::hetero_pim_at_frequency(mult)?;
            let r = run_model(kind, &cfg, STEPS)?;
            points.push(FreqPoint {
                multiplier: mult,
                step_seconds: r.per_step_time().seconds(),
                vs_gpu_pct: 100.0 * (gpu.per_step_time() / r.per_step_time() - 1.0),
                edp_per_step: edp(r.dynamic_energy / STEPS as f64, r.per_step_time()),
                power_watts: r.average_power().watts(),
            });
        }
        scalings.push(FreqScaling {
            kind,
            gpu_step_seconds: gpu.per_step_time().seconds(),
            gpu_power_watts: gpu.average_power().watts(),
            points,
        });
    }
    Ok(scalings)
}

/// Renders Fig. 11/17.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn fig11_fig17() -> Result<String> {
    let mut r =
        Renderer::new("Fig. 11/17: 3D-memory frequency scaling (time vs GPU, EDP/step, avg power)");
    for s in fig11_fig17_data()? {
        r.group_annotated(
            s.kind.name(),
            format_args!(
                "GPU: step={:.4}s power={:.0}W",
                s.gpu_step_seconds, s.gpu_power_watts
            ),
        );
        for p in &s.points {
            r.row(format_args!(
                "{}x: step={:>8.4}s ({:+5.1}% vs GPU)  EDP/step={:9.3e}  power={:5.0}W",
                p.multiplier, p.step_seconds, p.vs_gpu_pct, p.edp_per_step, p.power_watts,
            ));
        }
    }
    Ok(r.finish())
}

/// One constant-area design point of Fig. 12.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct ScalingPoint {
    /// Programmable-PIM ARM cores.
    pub arm_cores: usize,
    /// Fixed-function units fitting the remaining die area.
    pub ff_units: usize,
    /// Seconds per step with this complement.
    pub step_seconds: f64,
}

/// Fig. 12 design points for one model.
#[derive(Debug, Clone, Serialize)]
pub struct ProgrScaling {
    /// The simulated model.
    pub kind: ModelKind,
    /// One point per programmable-PIM count (1P/4P/16P).
    pub points: Vec<ScalingPoint>,
}

/// Gathers Fig. 12: programmable-PIM scaling (1P/4P/16P) at constant die
/// area.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn fig12_data() -> Result<Vec<ProgrScaling>> {
    let points = progr_scaling_points(&LogicDieBudget::paper_baseline())?;
    let mut scalings = Vec::new();
    for kind in ModelKind::CNNS {
        let model = cache::model(kind)?;
        let mut rows = Vec::new();
        for p in &points {
            let cfg = SystemConfig::HeteroPim(
                EngineConfig::preset(SystemPreset::Hetero)
                    .with_pim_complement(p.arm_cores, p.ff_units),
            );
            let r = cache::cell_report(&model, &cfg, STEPS)?;
            rows.push(ScalingPoint {
                arm_cores: p.arm_cores,
                ff_units: p.ff_units,
                step_seconds: r.per_step_time().seconds(),
            });
        }
        scalings.push(ProgrScaling { kind, points: rows });
    }
    Ok(scalings)
}

/// Renders Fig. 12.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn fig12() -> Result<String> {
    let mut r = Renderer::new("Fig. 12: Progr-PIM scaling at constant logic-die area");
    for s in fig12_data()? {
        let mut line = format!("{:14}", s.kind.name());
        for p in &s.points {
            write!(
                line,
                "  {}P({} FF)={:.4}s",
                p.arm_cores, p.ff_units, p.step_seconds
            )
            .ok();
        }
        r.row(line);
    }
    Ok(r.finish())
}

/// One configuration's row of the Fig. 13/14/15 software ablation.
#[derive(Debug, Clone, Serialize)]
pub struct AblationRow {
    /// Configuration name.
    pub config: String,
    /// Seconds per step.
    pub step_seconds: f64,
    /// Makespan relative to the full Hetero PIM (RC + OP).
    pub ratio_vs_full: f64,
    /// Dynamic energy normalized to the full configuration.
    pub energy_norm: f64,
    /// Fixed-function pool utilization.
    pub util: f64,
}

/// Fig. 13/14/15 rows for one model.
#[derive(Debug, Clone, Serialize)]
pub struct SoftwareAblation {
    /// The simulated model.
    pub kind: ModelKind,
    /// Progr/Fixed/Hetero-bare/+RC/+RC+OP, in that order.
    pub rows: Vec<AblationRow>,
}

/// Gathers Fig. 13/14/15: the software-technique ablation — execution
/// time, energy (normalized to Hetero+RC+OP) and fixed-function
/// utilization for Progr/Fixed/Hetero-bare/+RC/+RC+OP.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn fig13_fig14_fig15_data() -> Result<Vec<SoftwareAblation>> {
    let mut ablations = Vec::new();
    for kind in ModelKind::CNNS {
        let model = cache::model(kind)?;
        // simulate() wraps the graph in the same single-workload spec the
        // engine ran directly here before, so every preset row is a plain
        // sweep cell — and `full` (the Hetero preset) a guaranteed hit.
        let full = cache::cell_report(
            &model,
            &SystemConfig::HeteroPim(EngineConfig::preset(SystemPreset::Hetero)),
            STEPS,
        )?;
        let mut rows = Vec::new();
        for preset in [
            SystemPreset::ProgrOnly,
            SystemPreset::FixedHost,
            SystemPreset::HeteroBare,
            SystemPreset::HeteroRc,
            SystemPreset::Hetero,
        ] {
            let cfg = EngineConfig::preset(preset);
            let name = cfg.name.clone();
            let r = cache::cell_report(&model, &SystemConfig::HeteroPim(cfg), STEPS)?;
            rows.push(AblationRow {
                config: name,
                step_seconds: r.per_step_time().seconds(),
                ratio_vs_full: r.makespan / full.makespan,
                energy_norm: r.dynamic_energy / full.dynamic_energy,
                util: r.ff_utilization,
            });
        }
        ablations.push(SoftwareAblation { kind, rows });
    }
    Ok(ablations)
}

/// Renders Fig. 13/14/15.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn fig13_fig14_fig15() -> Result<String> {
    let mut r = Renderer::new(
        "Fig. 13/14/15: RC and OP ablation (time, energy normalized to full, utilization)",
    );
    for a in fig13_fig14_fig15_data()? {
        r.group(a.kind.name());
        for row in &a.rows {
            r.row(format_args!(
                "{:22} time={:>9.4}s ({:5.2}x full)  E_norm={:6.2}  util={:4.2}",
                row.config, row.step_seconds, row.ratio_vs_full, row.energy_norm, row.util,
            ));
        }
    }
    Ok(r.finish())
}

/// Gathers Fig. 16: mixed-workload co-running, one result per case, in
/// case order.
///
/// The six cases run as one [`corun_cases`] fan-out over the sweep's
/// cached models: phase 1 runs each of the five distinct models alone once
/// (the CNNs for their steps, LSTM and Word2vec for the probe that sizes
/// them), and phase 2 runs every case's sized co-runner alone and its
/// co-run, heaviest first.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn fig16_data() -> Result<Vec<CoRunResult>> {
    corun_cases(&fig16_cases(), 2)
}

/// Renders Fig. 16.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn fig16() -> Result<String> {
    let mut r = Renderer::new("Fig. 16: CNN + non-CNN co-run vs sequential execution");
    for result in fig16_data()? {
        r.row(format_args!(
            "{:14}+{:9}  seq={:>8.4}s  co-run={:>8.4}s  improvement={:5.1}%",
            result.cnn.name(),
            result.other.name(),
            result.sequential_seconds,
            result.corun_seconds,
            100.0 * result.improvement(),
        ));
    }
    Ok(r.finish())
}

/// Ablations beyond the paper's figures: the x-coverage sweep, multi-cube
/// scaling, and the §II-D GPU-attached estimate. The rows come structured
/// from [`crate::ablations`]; this renders them.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn ablations() -> Result<String> {
    let mut r = Renderer::new("Ablations (design choices and §II-D discussion)");

    let model = cache::model(ModelKind::Vgg19)?;
    r.line("\nCandidate-selection coverage sweep (VGG-19):");
    for p in coverage_sweep(&model, &[0.5, 0.7, 0.9, 0.99], STEPS)? {
        r.row(format_args!(
            "x={:4.2}: {:.4} s/step",
            p.coverage, p.step_seconds
        ));
    }

    r.line("\nMulti-cube fixed-function scaling (VGG-19):");
    for p in cube_scaling(&model, STEPS)? {
        r.row(format_args!(
            "{} cube(s), {} units: {:.4} s/step",
            p.cubes, p.ff_units, p.step_seconds
        ));
    }

    r.line("\nBatch-size sweep (AlexNet, Hetero PIM):");
    for p in batch_sweep(ModelKind::AlexNet, &[8, 16, 32, 64], STEPS)? {
        r.row(format_args!(
            "batch {:>3}: {:.4} s/step = {:.2} ms/sample",
            p.batch,
            p.hetero_step_seconds,
            1e3 * p.hetero_sample_seconds
        ));
    }

    r.line("\nGPU-attached heterogeneous PIM estimate (per step):");
    let gpu = pim_hw::gpu::GpuDevice::gtx_1080_ti();
    for kind in ModelKind::CNNS {
        let m = cache::model(kind)?;
        let est = gpu_attached(&m, &gpu)?;
        r.row(format_args!(
            "{:14} GPU {:.4}s -> GPU+PIM {:.4}s ({:.2}x)",
            kind.name(),
            est.gpu_seconds,
            est.gpu_pim_seconds,
            est.gpu_seconds / est.gpu_pim_seconds
        ));
    }
    Ok(r.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_models::Model;

    // Headline-shape tests run at reduced batch through the public
    // simulate() API elsewhere; here we verify the harness functions
    // produce the expected row structure on the real configurations.

    #[test]
    fn table1_lists_three_models() {
        let t = table1().unwrap();
        assert!(t.contains("VGG-19"));
        assert!(t.contains("AlexNet"));
        assert!(t.contains("DCGAN"));
        assert!(t.contains("Conv2DBackpropFilter"));
    }

    #[test]
    fn fig16_fan_out_matches_serial_coruns_in_case_order() {
        use crate::mixed::corun;
        let serial: Vec<CoRunResult> = fig16_cases()
            .into_iter()
            .map(|(cnn, other)| corun(cnn, other, 2).unwrap())
            .collect();
        assert_eq!(fig16_data().unwrap(), serial);
    }

    #[test]
    fn fig2_counts_every_quadrant() {
        let t = fig2().unwrap();
        assert_eq!(t.lines().count(), 1 + ModelKind::CNNS.len());
    }

    #[test]
    fn fig2_rows_cover_all_ops() {
        let census = fig2_data().unwrap();
        for (c, kind) in census.iter().zip(ModelKind::CNNS) {
            let model = Model::build(kind).unwrap();
            assert_eq!(
                c.ci_mi + c.mi_only + c.ci_only + c.neither,
                model.graph().op_count()
            );
        }
    }

    #[test]
    fn fig12_prints_three_design_points() {
        let t = fig12().unwrap();
        assert!(t.contains("1P(468 FF)"));
        assert!(t.contains("4P(444 FF)"));
        assert!(t.contains("16P(348 FF)"));
    }
}
