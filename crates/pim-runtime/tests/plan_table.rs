//! Warm equals cold: an engine plans each graph's uncontended placements
//! once and keeps them, so a run on an engine that already ran the graph
//! must produce exactly the output a fresh engine produces — report,
//! timeline and counters — on every preset, model and generated DAG,
//! with and without faults, restricted and not, under every tie-break,
//! and when two threads fill the table at once.

use pim_common::rng::check;
use pim_graph::gen::{random_dag, GenSpec};
use pim_graph::node::{OpKind, TensorRole};
use pim_graph::Graph;
use pim_hw::faults::FaultPlan;
use pim_models::{Model, ModelKind};
use pim_runtime::engine::{
    Engine, EngineConfig, RunOptions, RunOutput, RunRequest, SystemPreset, WorkloadSpec,
};
use pim_runtime::TieBreak;
use std::sync::Barrier;

const STEPS: usize = 2;

/// One workload on `graph` with every artifact the bytes depend on.
fn request(graph: &Graph, cpu_progr_only: bool, tie: TieBreak) -> RunRequest<'_> {
    RunRequest::new(&[WorkloadSpec {
        graph,
        steps: STEPS,
        cpu_progr_only,
    }])
    .with_options(RunOptions {
        timeline: true,
        tie,
        ..RunOptions::default()
    })
}

/// Everything a run produced that a caller can read, as text: equal text
/// means bit-equal floats.
fn bytes(out: &RunOutput) -> String {
    format!(
        "{:?}\n{:?}\n{:?}\n{:?}",
        out.reports, out.timeline, out.counters, out.degraded
    )
}

fn execute(engine: &Engine, request: &RunRequest<'_>) -> String {
    bytes(&engine.execute(request).unwrap())
}

/// What a fresh engine of `preset` produces for `request`.
fn cold(preset: SystemPreset, request: &RunRequest<'_>) -> String {
    execute(&Engine::new(EngineConfig::preset(preset)), request)
}

/// Runs `request` twice on `engine` and checks both runs against a fresh
/// engine's.
fn assert_warm_equals_cold(
    preset: SystemPreset,
    engine: &Engine,
    request: &RunRequest<'_>,
    what: &str,
) {
    let want = cold(preset, request);
    for run in ["first", "second"] {
        assert_eq!(
            execute(engine, request),
            want,
            "{what} on {preset:?}: {run} run on a shared engine differs from a fresh engine"
        );
    }
}

/// The seeded fault plan `preset` runs `graph` under: the fault-free
/// makespan as horizon, at a rate that strikes every cell.
fn fault_plan(preset: SystemPreset, graph: &Graph, seed: u64) -> FaultPlan {
    let engine = Engine::new(EngineConfig::preset(preset));
    let base = engine
        .execute(&request(graph, false, TieBreak::Stable))
        .unwrap();
    FaultPlan::seeded(seed, 0.2, base.report().makespan, engine.config().ff_units)
}

#[test]
fn warm_runs_equal_cold_runs_for_every_preset_and_model() {
    let models: Vec<Model> = ModelKind::ALL
        .iter()
        .map(|&k| Model::build(k).unwrap())
        .collect();
    for preset in SystemPreset::ALL {
        let engine = Engine::new(EngineConfig::preset(preset));
        for model in &models {
            let graph = model.graph();
            let what = model.kind().name();
            assert_warm_equals_cold(
                preset,
                &engine,
                &request(graph, false, TieBreak::Stable),
                what,
            );
            // The same engine, now warm, under a seeded fault plan.
            let faulted =
                request(graph, false, TieBreak::Stable).with_faults(fault_plan(preset, graph, 7));
            assert_warm_equals_cold(preset, &engine, &faulted, what);
        }
    }
}

#[test]
fn warm_runs_equal_cold_runs_on_generated_dags() {
    let engines: Vec<(SystemPreset, Engine)> = SystemPreset::ALL
        .iter()
        .map(|&p| (p, Engine::new(EngineConfig::preset(p))))
        .collect();
    check(16, "warm_runs_equal_cold_runs_on_generated_dags", |g| {
        let seed = g.draw(0u64..10_000);
        let fault_seed = g.draw(0u64..1_000);
        let graph = random_dag(&GenSpec::from_seed(seed));
        let what = format!("dag {seed}");
        for (preset, engine) in &engines {
            let plain = request(&graph, false, TieBreak::Stable);
            assert_warm_equals_cold(*preset, engine, &plain, &what);
            let faulted = plain.with_faults(fault_plan(*preset, &graph, fault_seed));
            assert_warm_equals_cold(*preset, engine, &faulted, &what);
        }
    });
}

/// A restricted and an unrestricted run of one graph on one engine keep
/// separate plans: the restriction moves placements, so a table keyed by
/// the graph alone would serve one run the other's plans.
#[test]
fn restricted_and_unrestricted_runs_share_an_engine() {
    let model = Model::build(ModelKind::Dcgan).unwrap();
    let graph = model.graph();
    for preset in SystemPreset::ALL {
        let engine = Engine::new(EngineConfig::preset(preset));
        for restricted in [false, true, false, true] {
            let req = request(graph, restricted, TieBreak::Stable);
            assert_eq!(
                execute(&engine, &req),
                cold(preset, &req),
                "{preset:?}, cpu_progr_only = {restricted}"
            );
        }
    }
}

/// Candidate membership is the stable selection's under every
/// tie-break, so one table serves every policy.
#[test]
fn every_tie_break_shares_an_engine() {
    let model = Model::build(ModelKind::Dcgan).unwrap();
    let graph = model.graph();
    let ties = [
        TieBreak::Permuted(0x5EED),
        TieBreak::Stable,
        TieBreak::Priority(0x5EED),
        TieBreak::Permuted(3),
    ];
    for preset in SystemPreset::ALL {
        let engine = Engine::new(EngineConfig::preset(preset));
        for tie in ties {
            let req = request(graph, false, tie);
            assert_eq!(
                execute(&engine, &req),
                cold(preset, &req),
                "{preset:?} under {tie:?}"
            );
        }
    }
}

/// A mutated graph is a new graph to the table: the grown op gets a plan.
#[test]
fn a_mutated_graph_is_planned_afresh() {
    let mut graph = random_dag(&GenSpec::from_seed(11));
    for preset in SystemPreset::ALL {
        let engine = Engine::new(EngineConfig::preset(preset));
        let req = request(&graph, false, TieBreak::Stable);
        assert_eq!(execute(&engine, &req), cold(preset, &req), "{preset:?}");
        drop(req);
        let input = graph.tensors()[0].clone();
        let output = graph.add_tensor(input.shape, TensorRole::Activation, "grown");
        graph
            .add_op(
                OpKind::Activation(pim_tensor::ops::activation::Activation::Relu),
                vec![input.id],
                vec![output],
            )
            .unwrap();
        let req = request(&graph, false, TieBreak::Stable);
        assert_eq!(
            execute(&engine, &req),
            cold(preset, &req),
            "{preset:?} after a mutation"
        );
    }
}

/// Two threads run one graph on one fresh engine at once, so both may
/// fill its table; each must still see what a fresh engine produces.
/// Partitioned requests fan their partitions out over worker threads that
/// share the engine too.
#[test]
fn concurrent_first_fills_equal_cold_runs() {
    let models = [
        Model::build(ModelKind::Lstm).unwrap(),
        Model::build(ModelKind::AlexNet).unwrap(),
    ];
    for preset in SystemPreset::ALL {
        for model in &models {
            let req = request(model.graph(), false, TieBreak::Stable);
            let want = cold(preset, &req);
            let engine = Engine::new(EngineConfig::preset(preset));
            let start = Barrier::new(2);
            let got: Vec<String> = std::thread::scope(|s| {
                let runs: Vec<_> = (0..2)
                    .map(|_| {
                        s.spawn(|| {
                            start.wait();
                            execute(&engine, &req)
                        })
                    })
                    .collect();
                runs.into_iter().map(|h| h.join().unwrap()).collect()
            });
            for out in got {
                assert_eq!(out, want, "{preset:?}, {}", model.kind().name());
            }
        }
        let workloads: Vec<WorkloadSpec<'_>> = models
            .iter()
            .flat_map(|m| {
                [false, true].map(|cpu_progr_only| WorkloadSpec {
                    graph: m.graph(),
                    steps: STEPS,
                    cpu_progr_only,
                })
            })
            .collect();
        let partitioned = RunRequest::new(&workloads)
            .with_options(RunOptions {
                timeline: true,
                ..RunOptions::default()
            })
            .partitioned();
        assert_warm_equals_cold(
            preset,
            &Engine::new(EngineConfig::preset(preset)),
            &partitioned,
            "partitioned",
        );
    }
}
