//! Differential guard for the fault-injection subsystem: running every
//! golden sweep cell through the faulted entry point with
//! [`FaultPlan::none`] must reproduce the checked-in golden table
//! byte-for-byte. The golden file predates the fault subsystem, so this
//! pins "no plan means the untouched zero-fault hot path" at the
//! strongest possible granularity — the shortest-round-trip `f64`
//! rendering of all 42 (model x preset) cells.

use pim_common::fingerprint::debug_hash;
use pim_hw::faults::FaultPlan;
use pim_models::{Model, ModelKind};
use pim_runtime::engine::{
    Engine, EngineConfig, RunOptions, RunRequest, SystemPreset, WorkloadSpec,
};
use std::fmt::Write as _;

const STEPS: usize = 2;

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/sweep_reports.txt"
);

#[test]
fn none_plan_sweep_matches_the_golden_table() {
    let mut out = String::new();
    writeln!(
        out,
        "# model | preset | makespan_s | op_s | dm_s | sync_s | energy_j | ff_util"
    )
    .unwrap();
    for kind in ModelKind::ALL {
        let model = Model::build(kind).unwrap();
        for preset in SystemPreset::ALL {
            let engine = Engine::new(EngineConfig::preset(preset));
            let run = engine
                .execute(&RunRequest::new(&[WorkloadSpec {
                    graph: model.graph(),
                    steps: STEPS,
                    cpu_progr_only: false,
                }]))
                .unwrap();
            assert!(run.degraded.is_none(), "{kind} @ {preset:?}");
            let r = run.report();
            writeln!(
                out,
                "{} | {} | {:?} | {:?} | {:?} | {:?} | {:?} | {:?}",
                kind.name(),
                preset.name(),
                r.makespan.seconds(),
                r.op_time.seconds(),
                r.data_movement_time.seconds(),
                r.sync_time.seconds(),
                r.dynamic_energy.joules(),
                r.ff_utilization,
            )
            .unwrap();
        }
    }
    let expected = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden table missing — regenerate with UPDATE_GOLDEN=1");
    for (n, (e, a)) in expected.lines().zip(out.lines()).enumerate() {
        assert_eq!(e, a, "none-plan cell drifted from golden at line {}", n + 1);
    }
    assert_eq!(expected.lines().count(), out.lines().count());
}

/// Steps per cell of the faulted sweep (the `fault-grid` benchmark's).
const FAULTED_STEPS: usize = 3;

const FAULTED_GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/faulted_reports.txt"
);

/// Pins the bytes of faulted runs: every (model x preset) cell under
/// `FaultPlan::seeded(seed, 0.1, fault-free makespan, ff_units)` for
/// seeds 1 and 2, one row per cell carrying the degradation label, every
/// report field, the event and fault counters, and a hash of the
/// timeline. Regenerate with `UPDATE_GOLDEN=1`.
#[test]
fn seeded_plan_sweep_matches_the_golden_table() {
    let mut out = String::new();
    writeln!(
        out,
        "# seed | model | preset | degraded | makespan_s | op_s | dm_s | sync_s | energy_j \
         | ff_util | device_busy | counters | timeline_hash"
    )
    .unwrap();
    let models: Vec<(ModelKind, Model)> = ModelKind::ALL
        .iter()
        .map(|&k| (k, Model::build(k).unwrap()))
        .collect();
    for seed in [1u64, 2] {
        for (kind, model) in &models {
            let wl = [WorkloadSpec {
                graph: model.graph(),
                steps: FAULTED_STEPS,
                cpu_progr_only: false,
            }];
            for preset in SystemPreset::ALL {
                let engine = Engine::new(EngineConfig::preset(preset));
                let base = engine.execute(&RunRequest::new(&wl)).unwrap();
                let plan =
                    FaultPlan::seeded(seed, 0.1, base.report().makespan, engine.config().ff_units);
                let run = engine
                    .execute(
                        &RunRequest::new(&wl)
                            .with_options(RunOptions {
                                timeline: true,
                                ..RunOptions::default()
                            })
                            .with_faults(plan),
                    )
                    .unwrap();
                let r = run.report();
                let counters: Vec<String> = run
                    .counters
                    .iter()
                    .filter(|(k, _)| k.starts_with("events/") || k.starts_with("faults/"))
                    .map(|(k, v)| format!("{k}={v:?}"))
                    .collect();
                writeln!(
                    out,
                    "{seed} | {} | {} | {:?} | {:?} | {:?} | {:?} | {:?} | {:?} | {:?} | {:?} \
                     | {} | {:016x}",
                    kind.name(),
                    preset.name(),
                    run.degraded,
                    r.makespan.seconds(),
                    r.op_time.seconds(),
                    r.data_movement_time.seconds(),
                    r.sync_time.seconds(),
                    r.dynamic_energy.joules(),
                    r.ff_utilization,
                    r.device_busy,
                    counters.join(","),
                    debug_hash(run.timeline.as_deref().unwrap()),
                )
                .unwrap();
            }
        }
    }
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(FAULTED_GOLDEN_PATH, &out).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(FAULTED_GOLDEN_PATH)
        .expect("faulted golden table missing — regenerate with UPDATE_GOLDEN=1");
    for (n, (e, a)) in expected.lines().zip(out.lines()).enumerate() {
        assert_eq!(e, a, "faulted cell drifted from golden at line {}", n + 1);
    }
    assert_eq!(expected.lines().count(), out.lines().count());
}
