//! Integration test of the extended OpenCL binary generation (Fig. 4)
//! against a real model graph.

use hetero_pim::models::{Model, ModelKind};
use hetero_pim::opencl::binary::BinarySet;
use hetero_pim::opencl::kir::KernelSource;
use pim_graph::cost::op_cost;
use pim_tensor::cost::OffloadClass;

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
            set.fixed_whole.is_some(),
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
