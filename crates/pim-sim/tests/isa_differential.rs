//! ISA differential suite: the interpreted instruction streams must
//! reproduce the analytic model's ground truth on every paper model.
//!
//! Three claims, each falsifiable here:
//!
//! 1. **Exact work conservation** — interpreting the lowered
//!    programmable binary #4 of every op offloads *bit-for-bit* the
//!    multiply/add count that pass 2 extracts from Fig. 4. `u64`
//!    equality, no tolerance.
//! 2. **Timing agreement** — analytic and interpreted makespans agree
//!    within [`pim_sim::isa::MAKESPAN_DELTA_BOUND`] on every
//!    hetero preset (the presets whose ARM placements the backend
//!    re-times).
//! 3. **Determinism** — the `repro isa` table is byte-identical across
//!    repeats and worker-thread counts (`PIM_RUN_THREADS`).

use pim_graph::cost::graph_costs;
use pim_isa::{lower_binary, lower_kernel, validate, Machine};
use pim_models::ModelKind;
use pim_opencl::binary::BinarySet;
use pim_opencl::kir::KernelSource;
use pim_runtime::engine::{
    Engine, EngineConfig, ProgrBackend, RunRequest, SystemPreset, WorkloadSpec,
};
use pim_sim::cache;
use pim_sim::isa::{isa_delta_table, MAKESPAN_DELTA_BOUND};

/// The presets whose programmable-PIM placements the ISA backend
/// re-times. CPU-only and Progr-only stay analytic by design.
const HETERO_PRESETS: [SystemPreset; 3] = [
    SystemPreset::Hetero,
    SystemPreset::HeteroBare,
    SystemPreset::HeteroRc,
];

/// Claim 1: on all seven models, every well-formed op's kernel lowers to
/// validator-clean programs whose interpreted tallies equal the Fig. 4
/// extraction exactly — executed mul/adds of the whole kernel match its
/// MulAdd regions, offloaded mul/adds of binary #4 match
/// `BinarySet::extracted_flops`, with the residual staying in-line.
#[test]
fn interpreted_tallies_match_fig4_extraction_on_every_model() {
    let machine = Machine::for_arm(&pim_hw::arm::ProgrammablePim::cortex_a9(
        &pim_mem::stack::StackConfig::hmc2(),
        4,
    ));
    for kind in ModelKind::ALL {
        let model = cache::model(kind).unwrap();
        let costs = graph_costs(model.graph()).unwrap();
        let mut checked = 0usize;
        for (op, cost) in model.graph().ops().iter().zip(&costs) {
            if !cost.is_well_formed() {
                continue;
            }
            let kernel = KernelSource::from_cost(op.kind.tf_name(), cost);
            let subject = format!("{kind:?}/op{} ({})", op.id.index(), kernel.name);

            let whole = lower_kernel(&kernel, cost).unwrap();
            validate(&whole).unwrap_or_else(|v| panic!("{subject}: whole invalid: {v:?}"));
            let ws = machine.run(&whole).unwrap();
            let expected_ma = kernel
                .body
                .iter()
                .map(|r| match r {
                    pim_opencl::kir::Region::MulAdd { muls, adds, .. } => muls + adds,
                    _ => 0.0,
                })
                .sum::<f64>();
            assert_eq!(
                (ws.executed_muls + ws.executed_adds) as f64,
                expected_ma,
                "{subject}: whole-kernel executed mul/add tally"
            );

            let set = BinarySet::generate(kernel).unwrap();
            let progr = lower_binary(&set, cost).unwrap();
            validate(&progr).unwrap_or_else(|v| panic!("{subject}: progr invalid: {v:?}"));
            let ps = machine.run(&progr).unwrap();
            assert_eq!(
                (ps.offloaded_muls + ps.offloaded_adds) as f64,
                set.extracted_flops(),
                "{subject}: offloaded tally vs Fig. 4 extraction"
            );
            assert_eq!(
                (ps.executed_muls + ps.executed_adds) as f64,
                set.progr.mul_add_flops(),
                "{subject}: residual in-line tally"
            );
            checked += 1;
        }
        assert!(checked > 0, "{kind:?}: no well-formed ops checked");
    }
}

/// Claim 1 through the verifier's own pass: `pim-verify --isa` semantics
/// stay clean on all seven models at their paper batch sizes.
#[test]
fn verifier_isa_pass_is_clean_on_every_model() {
    for kind in ModelKind::ALL {
        let diags = pim_verify::verify_model_isa(kind, kind.paper_batch_size()).unwrap();
        assert!(diags.is_clean(), "{kind:?}:\n{}", diags.render_text());
    }
}

/// Claim 2: analytic and interpreted makespans agree within the
/// documented bound on every hetero preset for every model.
#[test]
fn makespan_deltas_within_documented_bound() {
    for kind in ModelKind::ALL {
        let model = cache::model(kind).unwrap();
        let spec = [WorkloadSpec {
            graph: model.graph(),
            steps: 2,
            cpu_progr_only: false,
        }];
        for preset in HETERO_PRESETS {
            let analytic = Engine::new(EngineConfig::preset(preset))
                .execute(&RunRequest::new(&spec))
                .unwrap()
                .into_report();
            let interpreted =
                Engine::new(EngineConfig::preset(preset).with_progr_backend(ProgrBackend::Isa))
                    .execute(&RunRequest::new(&spec))
                    .unwrap()
                    .into_report();
            let delta = (interpreted.makespan.seconds() - analytic.makespan.seconds()).abs()
                / analytic.makespan.seconds();
            assert!(
                delta <= MAKESPAN_DELTA_BOUND,
                "{kind:?} @ {preset:?}: delta {delta} above bound {MAKESPAN_DELTA_BOUND} \
                 (analytic {}, interpreted {})",
                analytic.makespan,
                interpreted.makespan
            );
        }
    }
}

/// Claim 3: the `repro isa` table is byte-identical across repeats and
/// worker-thread counts. The env var is process-global; the settings run
/// sequentially inside this one test.
#[test]
fn isa_table_deterministic_across_repeats_and_thread_counts() {
    let kinds = [ModelKind::AlexNet, ModelKind::Dcgan];
    let first = isa_delta_table(&kinds, 2).unwrap();
    std::env::set_var("PIM_RUN_THREADS", "1");
    let serial = isa_delta_table(&kinds, 2).unwrap();
    std::env::set_var("PIM_RUN_THREADS", "4");
    let wide = isa_delta_table(&kinds, 2).unwrap();
    std::env::remove_var("PIM_RUN_THREADS");
    assert_eq!(first, serial, "thread pinning changed the table");
    assert_eq!(first, wide, "worker count leaked into the table");
    assert_eq!(
        first,
        isa_delta_table(&kinds, 2).unwrap(),
        "repeat run diverged"
    );
}
