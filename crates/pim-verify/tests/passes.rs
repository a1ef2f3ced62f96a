//! Positive and negative coverage for the checker: every shipped model
//! passes clean, and each seeded corruption is caught by the pass that
//! owns the violated invariant.

use pim_common::units::Seconds;
use pim_common::Severity;
use pim_graph::node::{OpKind, TensorRole};
use pim_graph::Graph;
use pim_models::{Model, ModelKind};
use pim_opencl::kir::{KernelSource, Region};
use pim_runtime::engine::{
    Engine, EngineConfig, ResourceClass, RunOptions, RunRequest, SystemPreset, WorkloadSpec,
};
use pim_tensor::ops::activation::Activation;
use pim_tensor::ops::elementwise::BinaryOp;
use pim_tensor::Shape;
use pim_verify::{
    engine_configs, verify_binaries, verify_faulted_schedule, verify_graph, verify_kernel_source,
    verify_schedule,
};

/// Small batches keep the debug-profile engine replays fast; the graph
/// structure (and thus every invariant checked) is batch-independent.
const TEST_BATCH: usize = 2;

fn assert_errors_in_pass(diags: &pim_common::Diagnostics, pass: &str, needle: &str) {
    let hits: Vec<_> = diags
        .items()
        .iter()
        .filter(|d| d.severity == Severity::Error && d.pass == pass)
        .collect();
    assert!(
        hits.iter().any(|d| d.message.contains(needle)),
        "expected an error in pass `{pass}` mentioning `{needle}`; got:\n{}",
        diags.render_text()
    );
}

// ---------------------------------------------------------------------
// Positive: all seven models are clean under every pass.
// ---------------------------------------------------------------------

#[test]
fn all_models_pass_graph_and_kir_clean() {
    for kind in ModelKind::ALL {
        let model = Model::build_with_batch(kind, TEST_BATCH).unwrap();
        let diags = verify_graph(kind.name(), model.graph());
        assert!(diags.is_clean(), "{}: {}", kind.name(), diags.render_text());
        let diags = verify_binaries(kind.name(), model.graph());
        // KIR pass should not even warn on shipped models.
        assert!(diags.is_empty(), "{}: {}", kind.name(), diags.render_text());
    }
}

#[test]
fn all_models_schedule_clean_under_every_config() {
    for kind in ModelKind::ALL {
        let model = Model::build_with_batch(kind, TEST_BATCH).unwrap();
        for cfg in engine_configs() {
            let diags = verify_schedule(kind.name(), model.graph(), &cfg, 2);
            assert!(
                diags.is_empty(),
                "{}@{}: {}",
                kind.name(),
                cfg.name,
                diags.render_text()
            );
        }
    }
}

#[test]
fn faulted_schedules_verify_clean_under_every_config() {
    // A CNN, an RNN, and a GAN exercise all three placement shapes; two
    // seeds vary which recovery paths (retry, re-dispatch, kill) fire.
    for kind in [ModelKind::AlexNet, ModelKind::Lstm, ModelKind::Dcgan] {
        let model = Model::build_with_batch(kind, TEST_BATCH).unwrap();
        for cfg in engine_configs() {
            for seed in [1, 9] {
                let diags =
                    verify_faulted_schedule(kind.name(), model.graph(), &cfg, 2, seed, 0.15);
                assert!(
                    diags.is_empty(),
                    "{}@{} seed {seed}: {}",
                    kind.name(),
                    cfg.name,
                    diags.render_text()
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Negative: seeded corruptions, each caught by the owning pass.
// ---------------------------------------------------------------------

/// Two activations feeding each other: a -> relu -> b, b -> relu -> a.
#[test]
fn graph_pass_catches_cycle() {
    let mut g = Graph::new();
    let a = g.add_tensor(Shape::new(vec![8]), TensorRole::Activation, "a");
    let b = g.add_tensor(Shape::new(vec![8]), TensorRole::Activation, "b");
    g.add_op(OpKind::Activation(Activation::Relu), vec![a], vec![b])
        .unwrap();
    g.add_op(OpKind::Activation(Activation::Relu), vec![b], vec![a])
        .unwrap();
    let diags = verify_graph("cyclic", &g);
    assert_errors_in_pass(&diags, pim_verify::graph::PASS, "cycle");
}

/// An element-wise Add whose operands have different element counts.
#[test]
fn graph_pass_catches_shape_mismatch() {
    let mut g = Graph::new();
    let a = g.add_tensor(Shape::new(vec![16]), TensorRole::Input, "a");
    let b = g.add_tensor(Shape::new(vec![4]), TensorRole::Input, "b");
    let out = g.add_tensor(Shape::new(vec![16]), TensorRole::Activation, "out");
    g.add_op(OpKind::Binary(BinaryOp::Add), vec![a, b], vec![out])
        .unwrap();
    let diags = verify_graph("mismatched", &g);
    assert_errors_in_pass(&diags, pim_verify::graph::PASS, "element counts disagree");
}

/// A source kernel whose body calls fixed-function kernel 7 — no
/// extraction produced it, so binary generation must refuse and the KIR
/// pass must surface that refusal.
#[test]
fn kir_pass_catches_out_of_bounds_call() {
    let kernel = KernelSource {
        name: "corrupt".into(),
        body: vec![
            Region::Control { ops: 10.0 },
            Region::CallFixed { kernel_index: 7 },
        ],
    };
    let diags = verify_kernel_source("corrupt-kernel", &kernel);
    assert_errors_in_pass(&diags, pim_verify::kir::PASS, "binary generation failed");
    assert!(
        !diags.is_clean(),
        "out-of-bounds call site must be an error"
    );
}

/// A recorded timeline perturbed so two independent CPU ops overlap; the
/// schedule pass must flag the double-booking.
#[test]
fn schedule_pass_catches_double_booked_cpu() {
    // Two independent activations over the same input: any legal CPU-only
    // schedule serializes them.
    let mut g = Graph::new();
    let input = g.add_tensor(Shape::new(vec![1024]), TensorRole::Input, "input");
    let out_a = g.add_tensor(Shape::new(vec![1024]), TensorRole::Activation, "out_a");
    let out_b = g.add_tensor(Shape::new(vec![1024]), TensorRole::Activation, "out_b");
    g.add_op(
        OpKind::Activation(Activation::Relu),
        vec![input],
        vec![out_a],
    )
    .unwrap();
    g.add_op(
        OpKind::Activation(Activation::Tanh),
        vec![input],
        vec![out_b],
    )
    .unwrap();

    let engine = Engine::new(EngineConfig::preset(SystemPreset::CpuOnly));
    let workloads = [WorkloadSpec {
        graph: &g,
        steps: 1,
        cpu_progr_only: false,
    }];
    let request = RunRequest::new(&workloads).with_options(RunOptions {
        timeline: true,
        ..RunOptions::default()
    });
    let mut timeline = engine.execute(&request).unwrap().timeline.unwrap();
    let clean = engine.verify(&request, &timeline).unwrap();
    assert!(clean.is_empty(), "{}", clean.render_text());

    // Drag the second CPU interval back on top of the first.
    let cpu: Vec<usize> = timeline
        .iter()
        .enumerate()
        .filter(|(_, e)| e.resource == ResourceClass::Cpu)
        .map(|(i, _)| i)
        .collect();
    assert!(cpu.len() >= 2, "expected two CPU placements");
    let span = timeline[cpu[0]].end.seconds() - timeline[cpu[0]].start.seconds();
    timeline[cpu[1]].start = timeline[cpu[0]].start;
    timeline[cpu[1]].end = Seconds::new(timeline[cpu[0]].start.seconds() + span);

    let diags = engine.verify(&request, &timeline).unwrap();
    let mut renamed = pim_common::Diagnostics::new();
    renamed.extend(diags);
    assert_errors_in_pass(&renamed, pim_runtime::verify::PASS, "double-books the CPU");
}

/// Liveness corruption: an activation consumed that nothing produces.
#[test]
fn graph_pass_catches_use_before_definition() {
    let mut g = Graph::new();
    let phantom = g.add_tensor(Shape::new(vec![32]), TensorRole::Activation, "phantom");
    let out = g.add_tensor(Shape::new(vec![32]), TensorRole::Activation, "out");
    g.add_op(
        OpKind::Activation(Activation::Relu),
        vec![phantom],
        vec![out],
    )
    .unwrap();
    let diags = verify_graph("phantom", &g);
    assert_errors_in_pass(&diags, pim_verify::graph::PASS, "use before definition");
}

// ---------------------------------------------------------------------
// Negative: hand-corrupted ISA programs are caught by pass 6 with a
// diagnostic naming the offending instruction.
// ---------------------------------------------------------------------

/// A minimal valid program: load, counted Fma loop, one fixed-kernel
/// call drained by a sync, store, halt. Each corruption below breaks
/// exactly one invariant of it.
fn valid_isa_program() -> pim_isa::Program {
    use pim_isa::{Ctr, FixedEntry, Inst, Program, Reg};
    Program {
        name: "corruptible".to_string(),
        regions: vec![4096, 1024],
        fixed_kernels: vec![FixedEntry {
            muls: 100,
            adds: 100,
            calls: 1,
        }],
        code: vec![
            Inst::Ld {
                dst: Reg(0),
                region: 0,
                bytes: 4096,
            },
            Inst::SetCnt {
                ctr: Ctr(0),
                trips: 4,
            },
            Inst::Fma {
                dst: Reg(2),
                a: Reg(0),
                b: Reg(1),
                elems: 250,
            },
            Inst::DecJnz {
                ctr: Ctr(0),
                target: 2,
            },
            Inst::CallFixed { kernel: 0 },
            Inst::Sync,
            Inst::St {
                src: Reg(2),
                region: 1,
                bytes: 1024,
            },
            Inst::Halt,
        ],
    }
}

#[test]
fn isa_pass_accepts_the_uncorrupted_program() {
    let p = valid_isa_program();
    assert!(pim_verify::verify_program("base", &p).is_clean());
    // 4 trips x 250 fma = 1000 executed muls/adds, plus the offloaded
    // fixed kernel's 100/100.
    assert!(pim_verify::verify_program_tallies("base", &p, 1100, 1100).is_clean());
}

#[test]
fn isa_pass_catches_out_of_range_region() {
    use pim_isa::{Inst, Reg};
    let mut p = valid_isa_program();
    p.code[0] = Inst::Ld {
        dst: Reg(0),
        region: 9,
        bytes: 4096,
    };
    let diags = pim_verify::verify_program("bad-region", &p);
    assert_errors_in_pass(&diags, pim_verify::isa::PASS, "inst 0 (ld)");
    assert_errors_in_pass(&diags, pim_verify::isa::PASS, "region r9 out of range");
}

#[test]
fn isa_pass_catches_call_to_missing_kernel() {
    use pim_isa::Inst;
    let mut p = valid_isa_program();
    p.code[4] = Inst::CallFixed { kernel: 3 };
    let diags = pim_verify::verify_program("bad-call", &p);
    assert_errors_in_pass(&diags, pim_verify::isa::PASS, "inst 4 (callfixed)");
    assert_errors_in_pass(&diags, pim_verify::isa::PASS, "calls fixed kernel k3");
}

#[test]
fn isa_pass_catches_missing_halt() {
    let mut p = valid_isa_program();
    p.code.pop();
    let diags = pim_verify::verify_program("no-halt", &p);
    assert_errors_in_pass(&diags, pim_verify::isa::PASS, "missing terminal Halt");
}

#[test]
fn isa_pass_catches_mul_add_tally_mismatch() {
    // The program is structurally valid but performs 1100/1100 mul/adds;
    // claiming 1200 multiplications must be rejected exactly.
    let p = valid_isa_program();
    let diags = pim_verify::verify_program_tallies("short-work", &p, 1200, 1100);
    assert_errors_in_pass(&diags, pim_verify::isa::PASS, "mul tally");
    assert_errors_in_pass(
        &diags,
        pim_verify::isa::PASS,
        "interpreted 1100, expected exactly 1200",
    );
}
