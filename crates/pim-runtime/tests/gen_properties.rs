//! Property-based invariants over the seeded random-graph generator:
//! report well-formedness, per-device busy-time bounds, the profile memo
//! returning exactly what a fresh profile computes, and the graph's
//! candidate memo returning exactly what a fresh profile and selection
//! compute, for every preset and for hosts that differ in one parameter.

use pim_common::rng::check;
use pim_graph::gen::{random_dag, GenSpec};
use pim_graph::node::{OpKind, TensorRole};
use pim_graph::Graph;
use pim_hw::cpu::CpuDevice;
use pim_runtime::engine::{
    Engine, EngineConfig, RunRequest, SystemPreset, WorkloadSpec, PROGR_KERNEL_SLOTS,
};
use pim_runtime::profiler::{profile_step, profile_step_cached};
use pim_runtime::select::{select_candidates_tie, CandidateSet};
use pim_runtime::TieBreak;
use std::sync::Arc;

fn run(graph: &pim_graph::Graph, preset: SystemPreset) -> pim_runtime::ExecutionReport {
    Engine::new(EngineConfig::preset(preset))
        .execute(&RunRequest::new(&[WorkloadSpec {
            graph,
            steps: 2,
            cpu_progr_only: false,
        }]))
        .unwrap()
        .into_report()
}

/// One engine per preset and coverage: the paper's 90% and a lower one.
fn engines() -> Vec<Engine> {
    let mut out = Vec::new();
    for preset in SystemPreset::ALL {
        for coverage in [0.9, 0.5] {
            out.push(Engine::new(EngineConfig {
                coverage,
                ..EngineConfig::preset(preset)
            }));
        }
    }
    out
}

/// What the candidate memo must return: a fresh profile and selection.
fn fresh_candidates(engine: &Engine, graph: &Graph, tie: TieBreak) -> CandidateSet {
    let profile = profile_step(graph, engine.profiling_device()).unwrap();
    select_candidates_tie(&profile, engine.config().coverage, tie)
}

/// Appends a Relu over the graph's first tensor: one more op, so a stale
/// candidate set would have the wrong number of members.
fn grow(graph: &mut Graph) {
    let input = graph.tensors()[0].clone();
    let output = graph.add_tensor(input.shape, TensorRole::Activation, "grown");
    graph
        .add_op(
            OpKind::Activation(pim_tensor::ops::activation::Activation::Relu),
            vec![input.id],
            vec![output],
        )
        .unwrap();
}

/// op + data movement + sync sums to the makespan (within
/// `is_well_formed`'s tolerance) on every preset, for any seed.
#[test]
fn breakdown_sums_to_makespan() {
    check(24, "breakdown_sums_to_makespan", |g| {
        let seed = g.draw(0u64..10_000);
        let graph = random_dag(&GenSpec::from_seed(seed));
        for preset in SystemPreset::ALL {
            let r = run(&graph, preset);
            assert!(
                r.is_well_formed(),
                "{preset:?}: op {} + dm {} + sync {} vs makespan {}",
                r.op_time,
                r.data_movement_time,
                r.sync_time,
                r.makespan
            );
        }
    });
}

/// No device is busy longer than its concurrency allows: CPU and the
/// (unit-normalized) fixed-function pool are bounded by the makespan,
/// the programmable PIM by makespan x kernel slots.
#[test]
fn device_busy_bounded_by_makespan() {
    check(24, "device_busy_bounded_by_makespan", |g| {
        let seed = g.draw(0u64..10_000);
        let graph = random_dag(&GenSpec::from_seed(seed));
        for preset in SystemPreset::ALL {
            let r = run(&graph, preset);
            let cap = 1.0 + 1e-9;
            for (device, busy) in &r.device_busy {
                let slots = if device == "Progr PIM" {
                    PROGR_KERNEL_SLOTS as f64
                } else {
                    1.0
                };
                assert!(
                    busy.seconds() <= r.makespan.seconds() * slots * cap,
                    "{preset:?}: {device} busy {busy} exceeds {slots}x makespan {}",
                    r.makespan
                );
            }
        }
    });
}

/// A profile-memo hit is exactly the profile a fresh computation
/// produces, and repeated hits share one allocation.
#[test]
fn profile_memo_hit_equals_fresh_profile() {
    check(24, "profile_memo_hit_equals_fresh_profile", |g| {
        let seed = g.draw(0u64..10_000);
        let graph = random_dag(&GenSpec::from_seed(seed));
        let cpu = CpuDevice::xeon_e5_2630_v3();
        let fresh = profile_step(&graph, &cpu).unwrap();
        let first = profile_step_cached(&graph, &cpu).unwrap();
        let second = profile_step_cached(&graph, &cpu).unwrap();
        assert!(*first == fresh, "memoized profile diverges from fresh");
        assert!(*second == fresh);
        assert!(Arc::ptr_eq(&first, &second), "repeat hit re-computed");
    });
}

/// The graph's candidate memo — filled, then hit — returns exactly a
/// fresh `select_candidates_tie(profile_step(..))` for every preset,
/// coverage and tie kind; a graph mutated after the memo was filled
/// recomputes, and a clone mutated afterwards never sees the
/// original's entry.
#[test]
fn candidate_memo_equals_fresh_selection() {
    check(24, "candidate_memo_equals_fresh_selection", |g| {
        let seed = g.draw(0u64..10_000);
        let mut graph = random_dag(&GenSpec::from_seed(seed));
        let ties = [
            TieBreak::Stable,
            TieBreak::Permuted(seed),
            TieBreak::Priority(seed),
        ];
        let engines = engines();
        for engine in &engines {
            for tie in ties {
                let fresh = fresh_candidates(engine, &graph, tie);
                assert_eq!(&engine.candidates(&graph, tie).unwrap(), &fresh);
                assert_eq!(&engine.candidates(&graph, tie).unwrap(), &fresh);
            }
        }
        let mut copy = graph.clone();
        grow(&mut copy);
        for engine in &engines {
            for tie in ties {
                assert_eq!(
                    &engine.candidates(&copy, tie).unwrap(),
                    &fresh_candidates(engine, &copy, tie)
                );
                assert_eq!(
                    &engine.candidates(&graph, tie).unwrap(),
                    &fresh_candidates(engine, &graph, tie)
                );
            }
        }
        grow(&mut graph);
        for engine in &engines {
            for tie in ties {
                assert_eq!(
                    &engine.candidates(&graph, tie).unwrap(),
                    &fresh_candidates(engine, &graph, tie)
                );
            }
        }
    });
}

/// Two hosts that differ in one parameter key apart in the graph's
/// candidate memo: on one graph, each engine returns its own fresh
/// selection. The two selections differ, so a CPU fingerprint blind to
/// that parameter would hand the second engine the first one's set.
#[test]
fn hosts_differing_in_one_parameter_get_their_own_candidates() {
    let graph = random_dag(&GenSpec::from_seed(1));
    let xeon = CpuDevice::xeon_e5_2630_v3();
    let mut params = xeon.params().clone();
    params.other_throughput /= 100.0;
    let hosts = [xeon, CpuDevice::custom(params)];
    let engines = hosts
        .map(|host| Engine::new(EngineConfig::preset(SystemPreset::Hetero).with_host_cpu(host)));
    let fresh = engines
        .each_ref()
        .map(|engine| fresh_candidates(engine, &graph, TieBreak::Stable));
    assert_ne!(
        fresh[0], fresh[1],
        "the parameter does not move the selection"
    );
    for (engine, fresh) in engines.iter().zip(&fresh) {
        assert_eq!(&engine.candidates(&graph, TieBreak::Stable).unwrap(), fresh);
    }
}
