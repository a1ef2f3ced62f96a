//! Property-based invariants over the seeded random-graph generator:
//! report well-formedness, per-device busy-time bounds, the profile memo
//! returning exactly what a fresh profile computes, and the graph's
//! candidate memo returning exactly what a fresh profile and selection
//! compute.

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
use proptest::prelude::*;
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// op + data movement + sync sums to the makespan (within
    /// `is_well_formed`'s tolerance) on every preset, for any seed.
    #[test]
    fn breakdown_sums_to_makespan(seed in 0u64..10_000) {
        let graph = random_dag(&GenSpec::from_seed(seed));
        for preset in SystemPreset::ALL {
            let r = run(&graph, preset);
            prop_assert!(
                r.is_well_formed(),
                "{preset:?}: op {} + dm {} + sync {} vs makespan {}",
                r.op_time, r.data_movement_time, r.sync_time, r.makespan
            );
        }
    }

    /// No device is busy longer than its concurrency allows: CPU and the
    /// (unit-normalized) fixed-function pool are bounded by the makespan,
    /// the programmable PIM by makespan x kernel slots.
    #[test]
    fn device_busy_bounded_by_makespan(seed in 0u64..10_000) {
        let graph = random_dag(&GenSpec::from_seed(seed));
        for preset in SystemPreset::ALL {
            let r = run(&graph, preset);
            let cap = 1.0 + 1e-9;
            for (device, busy) in &r.device_busy {
                let slots = if device == "Progr PIM" { PROGR_KERNEL_SLOTS as f64 } else { 1.0 };
                prop_assert!(
                    busy.seconds() <= r.makespan.seconds() * slots * cap,
                    "{preset:?}: {device} busy {busy} exceeds {slots}x makespan {}",
                    r.makespan
                );
            }
        }
    }

    /// A profile-memo hit is exactly the profile a fresh computation
    /// produces, and repeated hits share one allocation.
    #[test]
    fn profile_memo_hit_equals_fresh_profile(seed in 0u64..10_000) {
        let graph = random_dag(&GenSpec::from_seed(seed));
        let cpu = CpuDevice::xeon_e5_2630_v3();
        let fresh = profile_step(&graph, &cpu).unwrap();
        let first = profile_step_cached(&graph, &cpu).unwrap();
        let second = profile_step_cached(&graph, &cpu).unwrap();
        prop_assert!(*first == fresh, "memoized profile diverges from fresh");
        prop_assert!(*second == fresh);
        prop_assert!(Arc::ptr_eq(&first, &second), "repeat hit re-computed");
    }

    /// The graph's candidate memo — filled, then hit — returns exactly a
    /// fresh `select_candidates_tie(profile_step(..))` for every preset,
    /// coverage and tie kind; a graph mutated after the memo was filled
    /// recomputes, and a clone mutated afterwards never sees the
    /// original's entry.
    #[test]
    fn candidate_memo_equals_fresh_selection(seed in 0u64..10_000) {
        let mut graph = random_dag(&GenSpec::from_seed(seed));
        let ties = [TieBreak::Stable, TieBreak::Permuted(seed), TieBreak::Priority(seed)];
        let engines = engines();
        for engine in &engines {
            for tie in ties {
                let fresh = fresh_candidates(engine, &graph, tie);
                prop_assert_eq!(&engine.candidates(&graph, tie).unwrap(), &fresh);
                prop_assert_eq!(&engine.candidates(&graph, tie).unwrap(), &fresh);
            }
        }
        let mut copy = graph.clone();
        grow(&mut copy);
        for engine in &engines {
            for tie in ties {
                prop_assert_eq!(
                    &engine.candidates(&copy, tie).unwrap(),
                    &fresh_candidates(engine, &copy, tie)
                );
                prop_assert_eq!(
                    &engine.candidates(&graph, tie).unwrap(),
                    &fresh_candidates(engine, &graph, tie)
                );
            }
        }
        grow(&mut graph);
        for engine in &engines {
            for tie in ties {
                prop_assert_eq!(
                    &engine.candidates(&graph, tie).unwrap(),
                    &fresh_candidates(engine, &graph, tie)
                );
            }
        }
    }
}
