//! The GPU baseline simulation (§V-D, §VI-A).
//!
//! The GPU executes the training step as a stream of fused kernels at the
//! model-specific average utilization the paper measured, plus the
//! step-level effects it discusses: unhidden minibatch staging over PCIe
//! and working-set spill when the training footprint exceeds device memory
//! (the ResNet-50 case). The kernel stream runs back to back through the
//! baselines' serial device loop via the [`AnalyticGpu`] device, and the
//! report is built by the same `ReportBuilder` as every other
//! configuration's.

use crate::baselines::run_serial;
use pim_common::units::Bytes;
use pim_common::Result;
use pim_graph::{Graph, TensorRole};
use pim_hw::device::AnalyticGpu;
use pim_hw::gpu::GpuDevice;
use pim_models::Model;
use pim_runtime::stats::ExecutionReport;

/// Fraction of per-tensor activation footprint that TensorFlow's buffer
/// reuse eliminates from the live working set.
const ACTIVATION_REUSE: f64 = 0.5;

/// Training working set of one step: live activations (after buffer reuse)
/// plus parameters with gradient and two Adam moments.
pub fn working_set(graph: &Graph) -> Bytes {
    let activations: usize = graph
        .tensors()
        .iter()
        .filter(|t| t.role == TensorRole::Activation)
        .map(|t| t.shape.size_bytes())
        .sum();
    let params = graph.parameter_bytes();
    Bytes::new(activations as f64 * ACTIVATION_REUSE + params as f64 * 4.0)
}

/// Minibatch bytes staged over PCIe each step (the input-role tensors).
pub fn minibatch_bytes(graph: &Graph) -> Bytes {
    let input: usize = graph
        .tensors()
        .iter()
        .filter(|t| t.role == TensorRole::Input)
        .map(|t| t.shape.size_bytes())
        .sum();
    Bytes::new(input as f64)
}

/// Simulates `steps` training steps of `model` on the GPU baseline.
///
/// # Errors
///
/// Propagates cost-model failures.
pub fn simulate_gpu(model: &Model, gpu: &GpuDevice, steps: usize) -> Result<ExecutionReport> {
    let graph = model.graph();
    let utilization = model.kind().gpu_utilization().unwrap_or(0.5);
    let costs = graph.costs()?;
    let device = AnalyticGpu::new(gpu.clone(), utilization);

    // Step-level PCIe effects outside the kernel stream: minibatch staging,
    // working-set spill (billed as data movement), and the transfer energy
    // for everything crossing the link (spilled bytes cross twice).
    let staging = gpu.staging_time(minibatch_bytes(graph));
    let spill = gpu.spill_time(working_set(graph));
    let pcie_volume = minibatch_bytes(graph)
        + Bytes::new((working_set(graph).bytes() - gpu.capacity().bytes()).max(0.0) * 2.0);

    Ok(run_serial(
        "GPU",
        &device,
        costs,
        steps,
        staging + spill,
        gpu.transfer_energy(pcie_volume),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_models::ModelKind;

    #[test]
    fn resnet_at_paper_batch_spills_but_vgg_does_not() {
        let resnet = Model::build(ModelKind::ResNet50).unwrap();
        let vgg = Model::build(ModelKind::Vgg19).unwrap();
        let gpu = GpuDevice::gtx_1080_ti();
        assert!(working_set(resnet.graph()) > gpu.capacity());
        assert!(working_set(vgg.graph()) < gpu.capacity());
    }

    #[test]
    fn report_is_well_formed() {
        let model = Model::build_with_batch(ModelKind::AlexNet, 8).unwrap();
        let r = simulate_gpu(&model, &GpuDevice::gtx_1080_ti(), 2).unwrap();
        assert!(r.is_well_formed());
        assert!(r.makespan.seconds() > 0.0);
    }

    #[test]
    fn more_steps_scale_linearly() {
        let model = Model::build_with_batch(ModelKind::Dcgan, 8).unwrap();
        let gpu = GpuDevice::gtx_1080_ti();
        let one = simulate_gpu(&model, &gpu, 1).unwrap();
        let three = simulate_gpu(&model, &gpu, 3).unwrap();
        assert!((three.makespan.seconds() - 3.0 * one.makespan.seconds()).abs() < 1e-9);
    }
}
