//! Differential suite guarding the engine hot-path optimizations.
//!
//! Every optimization in this area (single-pass scheduler scan, deferred
//! counter flush, sweep-cell cache) claims to be
//! behavior-invisible. These tests make the claim falsifiable: seeded
//! random graphs and the paper models run through both the optimized
//! sweep paths and the plain single-run reference, and the resulting
//! [`ExecutionReport`]s must agree exactly — `PartialEq`, no tolerance.
//! Schedules must replay cleanly through the legality checker and the
//! counter registry must match the report.
//!
//! The suite is worker-count-agnostic: CI runs it at every
//! `PIM_RUN_THREADS` setting of its thread matrix, serial (`1`) included,
//! and expects identical verdicts.

use pim_graph::gen::{random_dag, GenSpec};
use pim_hw::faults::FaultPlan;
use pim_models::{Model, ModelKind};
use pim_runtime::engine::{
    Engine, EngineConfig, RunOptions, RunRequest, SystemPreset, WorkloadSpec,
};
use pim_runtime::stats::cross_check_counters;
use pim_sim::cache;
use pim_sim::configs::{simulate, SystemConfig};

const SEEDS: u64 = 50;
const STEPS: usize = 2;

/// 50 seeded random DAGs x all 6 presets: the plain report path and the
/// timeline-collecting path (different sinks, different allocation
/// behavior) must produce identical reports; the timeline must replay
/// cleanly through the schedule checker; counters must agree with the
/// report.
#[test]
fn random_graphs_run_identically_on_every_preset() {
    for seed in 0..SEEDS {
        let graph = random_dag(&GenSpec::from_seed(seed));
        graph
            .validate()
            .unwrap_or_else(|e| panic!("seed {seed}: generator produced invalid graph: {e}"));
        let diags = pim_verify::graph::verify_graph(&format!("random-{seed}"), &graph);
        assert!(diags.is_clean(), "seed {seed}:\n{}", diags.render_text());

        let wl = [WorkloadSpec {
            graph: &graph,
            steps: STEPS,
            cpu_progr_only: false,
        }];
        for preset in SystemPreset::ALL {
            let engine = Engine::new(EngineConfig::preset(preset));
            let reference = engine.execute(&RunRequest::new(&wl)).unwrap().into_report();
            let detailed = engine
                .execute(&RunRequest::new(&wl).with_options(RunOptions {
                    timeline: true,
                    ..RunOptions::default()
                }))
                .unwrap();
            assert_eq!(
                reference,
                *detailed.report(),
                "seed {seed} {preset:?}: report paths diverge"
            );

            let timeline = detailed.timeline.as_deref().expect("timeline requested");
            let diags = engine.verify(&RunRequest::new(&wl), timeline).unwrap();
            assert!(
                diags.is_clean(),
                "seed {seed} {preset:?}: illegal schedule\n{}",
                diags.render_text()
            );

            let diags = cross_check_counters(detailed.report(), &detailed.counters);
            assert!(
                diags.is_clean(),
                "seed {seed} {preset:?}: counters disagree with report\n{}",
                diags.render_text()
            );
        }
    }
}

/// Fault-path differential on a seed subset: under a seeded [`FaultPlan`]
/// the report path and the timeline-collecting path must still agree
/// exactly, the faulted timeline must replay cleanly through the faulted
/// legality checker, counters must cross-check, and a rerun of the same
/// plan must be deterministic. Guards the faulted event core the same way
/// the zero-fault suite guards the plain one.
#[test]
fn faulted_runs_are_deterministic_and_legal() {
    const FAULT_SEEDS: [u64; 5] = [2, 11, 23, 31, 47];
    const RATE: f64 = 0.1;
    for seed in FAULT_SEEDS {
        let graph = random_dag(&GenSpec::from_seed(seed));
        let wl = [WorkloadSpec {
            graph: &graph,
            steps: STEPS,
            cpu_progr_only: false,
        }];
        for preset in SystemPreset::ALL {
            let engine = Engine::new(EngineConfig::preset(preset));
            let baseline = engine.execute(&RunRequest::new(&wl)).unwrap().into_report();
            let plan = FaultPlan::seeded(seed, RATE, baseline.makespan, engine.config().ff_units);

            let request = RunRequest::new(&wl).with_faults(plan);
            let reference = engine.execute(&request).unwrap();
            let detailed = engine
                .execute(&request.clone().with_options(RunOptions {
                    timeline: true,
                    ..RunOptions::default()
                }))
                .unwrap();
            assert_eq!(
                reference.report(),
                detailed.report(),
                "seed {seed} {preset:?}: faulted report paths diverge"
            );
            assert_eq!(
                reference.degraded, detailed.degraded,
                "seed {seed} {preset:?}: collapse verdicts diverge"
            );

            let rerun = engine.execute(&request).unwrap();
            assert_eq!(
                reference.report(),
                rerun.report(),
                "seed {seed} {preset:?}: faulted rerun diverged"
            );

            let timeline = detailed.timeline.as_deref().expect("timeline requested");
            let diags = engine.verify(&request, timeline).unwrap();
            assert!(
                diags.is_clean(),
                "seed {seed} {preset:?}: illegal faulted schedule\n{}",
                diags.render_text()
            );

            let diags = cross_check_counters(detailed.report(), &detailed.counters);
            assert!(
                diags.is_clean(),
                "seed {seed} {preset:?}: faulted counters disagree with report\n{}",
                diags.render_text()
            );
        }
    }
}

/// Two back-to-back fault-free runs through one engine must return the
/// same report: nothing a run leaves behind may leak into the next.
#[test]
fn engine_rerun_is_identical() {
    for seed in [3, 17, 41] {
        let graph = random_dag(&GenSpec::from_seed(seed));
        let engine = Engine::new(EngineConfig::preset(SystemPreset::Hetero));
        let wl = [WorkloadSpec {
            graph: &graph,
            steps: STEPS,
            cpu_progr_only: false,
        }];
        let first = engine.execute(&RunRequest::new(&wl)).unwrap().into_report();
        let second = engine.execute(&RunRequest::new(&wl)).unwrap().into_report();
        assert_eq!(first, second, "seed {seed}: rerun diverged");
    }
}

/// The sweep-cell cache against the uncached single-run reference, over
/// paper models on every preset: first call (miss), second call (hit),
/// and a fresh `simulate` must be three identical reports.
#[test]
fn sweep_cells_match_single_run_reference() {
    for (kind, batch) in [(ModelKind::AlexNet, 4), (ModelKind::Dcgan, 4)] {
        let model = Model::build_with_batch(kind, batch).unwrap();
        for preset in SystemPreset::ALL {
            let config = SystemConfig::HeteroPim(EngineConfig::preset(preset));
            let miss = cache::cell_report(&model, &config, STEPS).unwrap();
            let hit = cache::cell_report(&model, &config, STEPS).unwrap();
            let fresh = simulate(&model, &config, STEPS).unwrap();
            assert_eq!(miss, hit, "{kind:?} {preset:?}: cache hit diverged");
            assert_eq!(miss, fresh, "{kind:?} {preset:?}: cache vs fresh diverged");
        }
    }
}
