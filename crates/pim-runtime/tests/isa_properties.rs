//! Property-based invariants over ISA lowering: every kernel of every
//! seeded random DAG lowers to a validator-clean program, interpretation
//! retires within the validator's static cycle bound, and lowering is
//! byte-idempotent.

use pim_common::rng::check;
use pim_graph::cost::graph_costs;
use pim_graph::gen::{random_dag, GenSpec};
use pim_hw::arm::ProgrammablePim;
use pim_isa::{lower_binary, lower_kernel, validate, Machine};
use pim_mem::stack::StackConfig;
use pim_opencl::binary::BinarySet;
use pim_opencl::kir::KernelSource;

fn machine() -> Machine {
    Machine::for_arm(&ProgrammablePim::cortex_a9(&StackConfig::hmc2(), 4))
}

/// Every well-formed op cost of a seeded graph as a lowered
/// (whole-kernel, programmable-binary) program pair.
fn lowered_programs(seed: u64) -> Vec<(pim_isa::Program, pim_isa::Program)> {
    let graph = random_dag(&GenSpec::from_seed(seed));
    let costs = graph_costs(&graph).unwrap();
    graph
        .ops()
        .iter()
        .zip(&costs)
        .filter(|(_, cost)| cost.is_well_formed())
        .map(|(op, cost)| {
            let kernel = KernelSource::from_cost(op.kind.tf_name(), cost);
            let whole = lower_kernel(&kernel, cost).unwrap();
            let set = BinarySet::generate(kernel).unwrap();
            let progr = pim_isa::lower_binary_with_traffic(
                &set,
                cost.bytes_read.bytes().max(0.0).round() as u64,
                cost.bytes_written.bytes().max(0.0).round() as u64,
            )
            .unwrap();
            // lower_binary and lower_binary_with_traffic must agree.
            assert_eq!(progr.encode(), lower_binary(&set, cost).unwrap().encode());
            (whole, progr)
        })
        .collect()
}

/// Lowering any generated kernel yields a program the structural
/// validator accepts — counted loops close, calls resolve, `halt`
/// terminates.
#[test]
fn generated_kernels_lower_validator_clean() {
    check(24, "generated_kernels_lower_validator_clean", |g| {
        let seed = g.draw(0u64..10_000);
        for (whole, progr) in lowered_programs(seed) {
            assert!(
                validate(&whole).is_ok(),
                "{}: whole-kernel program invalid:\n{}",
                whole.name,
                whole.disassemble()
            );
            assert!(
                validate(&progr).is_ok(),
                "{}: progr-binary program invalid:\n{}",
                progr.name,
                progr.disassemble()
            );
        }
    });
}

/// Interpretation terminates, retires exactly the validator's
/// multiplicity total, and never exceeds the static cycle bound.
#[test]
fn interpretation_stays_within_static_bounds() {
    check(24, "interpretation_stays_within_static_bounds", |g| {
        let seed = g.draw(0u64..10_000);
        let m = machine();
        for (which, program) in lowered_programs(seed)
            .into_iter()
            .flat_map(|(w, p)| [("whole", w), ("progr", p)])
        {
            let info = validate(&program).unwrap();
            let summary = m.run(&program).unwrap_or_else(|e| {
                panic!("{which} {}: {e}\n{}", program.name, program.disassemble())
            });
            assert_eq!(
                summary.retired, info.retired_bound,
                "{} {}: straight-line retirement must hit the bound exactly",
                which, &program.name
            );
            assert!(
                summary.issue_cycles <= m.cycle_bound(&program, &info),
                "{} {}: {} cycles over static bound {}",
                which,
                &program.name,
                summary.issue_cycles,
                m.cycle_bound(&program, &info)
            );
        }
    });
}

/// Lowering is deterministic down to the encoded bytes: lowering the
/// same kernel twice yields bit-identical programs.
#[test]
fn lowering_is_byte_idempotent() {
    check(24, "lowering_is_byte_idempotent", |g| {
        let seed = g.draw(0u64..10_000);
        let a = lowered_programs(seed);
        let b = lowered_programs(seed);
        assert_eq!(a.len(), b.len());
        for ((wa, pa), (wb, pb)) in a.into_iter().zip(b) {
            assert_eq!(wa.encode(), wb.encode(), "whole-kernel bytes diverged");
            assert_eq!(pa.encode(), pb.encode(), "progr-binary bytes diverged");
        }
    });
}
