//! Property-based invariants over the seeded random-graph generator:
//! report well-formedness, per-device busy-time bounds, and the profile
//! memo returning exactly what a fresh profile computes.

use pim_graph::gen::{random_dag, GenSpec};
use pim_hw::cpu::CpuDevice;
use pim_runtime::engine::{
    Engine, EngineConfig, RunRequest, SystemPreset, WorkloadSpec, PROGR_KERNEL_SLOTS,
};
use pim_runtime::profiler::{profile_step, profile_step_cached};
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
}
