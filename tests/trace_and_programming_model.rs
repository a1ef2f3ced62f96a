//! Integration tests of the trace-driven path (§V-A) and the extended
//! OpenCL binary generation (Fig. 4) against real model graphs.

use hetero_pim::models::{Model, ModelKind};
use hetero_pim::opencl::binary::BinarySet;
use hetero_pim::opencl::kir::KernelSource;
use hetero_pim::sim::trace::Trace;
use hetero_pim::sim::tracegen::generate_trace;
use pim_common::ids::OpId;
use pim_graph::cost::op_cost;
use pim_tensor::cost::OffloadClass;

/// The trace roundtrips through its binary encoding and reproduces every
/// op's cost counters exactly, for every workload in the zoo.
#[test]
fn traces_roundtrip_for_every_model() {
    for kind in ModelKind::ALL {
        let model = Model::build_with_batch(kind, 4).unwrap();
        let trace = generate_trace(model.graph()).unwrap();
        assert_eq!(trace.records.len(), model.graph().op_count(), "{kind}");
        let decoded = Trace::decode(trace.encode()).unwrap();
        assert_eq!(decoded, trace, "{kind}");
        for rec in &decoded.records {
            let node = model.graph().op(OpId::new(rec.op_index as usize)).unwrap();
            let direct = op_cost(model.graph(), node).unwrap();
            let replayed = rec.to_cost();
            assert_eq!(replayed.memory_accesses(), direct.memory_accesses());
            assert_eq!(replayed.ma_flops(), direct.ma_flops());
        }
    }
}

/// Binary generation (Fig. 4) produces the right binary complement for
/// every op of VGG-19: all four for pure mul/add kernels, recursive-kernel
/// support exactly for ops with a fixed-function part.
#[test]
fn binary_generation_matches_op_classes() {
    let model = Model::build_with_batch(ModelKind::Vgg19, 4).unwrap();
    for node in model.graph().ops() {
        let cost = op_cost(model.graph(), node).unwrap();
        let set = BinarySet::generate(KernelSource::from_cost(node.kind.tf_name(), &cost)).unwrap();
        assert_eq!(
            set.runs_whole_on_fixed(),
            cost.class == OffloadClass::FullyMulAdd && cost.total_flops() > 0.0,
            "{}",
            node.kind.tf_name()
        );
        assert_eq!(
            set.supports_recursive_kernel(),
            cost.class.has_fixed_function_part(),
            "{}",
            node.kind.tf_name()
        );
        if set.supports_recursive_kernel() {
            assert!((set.extracted_flops() - cost.ma_flops()).abs() < 1e-6);
        }
    }
}
