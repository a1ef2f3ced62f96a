//! Ablations and extensions beyond the paper's figures.
//!
//! * [`coverage_sweep`] — sensitivity of the candidate-selection parameter
//!   `x` (the paper fixes x = 90 without a sweep; DESIGN.md lists this as a
//!   design-choice ablation),
//! * [`cube_scaling`] — scaling the fixed-function complement as if more
//!   memory cubes contributed logic-die area (the multi-cube direction the
//!   HMC platform implies),
//! * [`gpu_attached`] — the §II-D discussion: "our heterogeneous PIMs ...
//!   are generally applicable to both CPU or GPU systems"; a first-order
//!   model of attaching the PIM complement to the GPU's stacked memory.

use crate::configs::{simulate, SystemConfig};
use crate::gpu::{minibatch_bytes, working_set};
use pim_common::units::Seconds;
use pim_common::Result;
use pim_hw::fixed::FixedPoolConfig;
use pim_hw::gpu::GpuDevice;
use pim_mem::stack::StackConfig;
use pim_models::Model;
use pim_runtime::engine::{EngineConfig, SystemPreset};
use serde::Serialize;

/// One point of the coverage sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct CoveragePoint {
    /// The selection parameter x (fraction of step time candidates cover).
    pub coverage: f64,
    /// Resulting per-step time in seconds.
    pub step_seconds: f64,
}

/// Sweeps the candidate-selection coverage `x` for one model.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn coverage_sweep(model: &Model, points: &[f64], steps: usize) -> Result<Vec<CoveragePoint>> {
    points
        .iter()
        .map(|&coverage| {
            let mut cfg = EngineConfig::preset(SystemPreset::Hetero);
            cfg.coverage = coverage;
            let r = simulate(model, &SystemConfig::Engine(cfg), steps)?;
            Ok(CoveragePoint {
                coverage,
                step_seconds: r.per_step_time().seconds(),
            })
        })
        .collect()
}

/// One point of the cube-scaling study.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct CubePoint {
    /// Number of memory cubes contributing fixed-function units.
    pub cubes: usize,
    /// Total fixed-function units.
    pub ff_units: usize,
    /// Per-step time in seconds.
    pub step_seconds: f64,
}

/// Scales the fixed-function complement with the cube count (1-4 cubes).
///
/// # Errors
///
/// Propagates simulation failures.
pub fn cube_scaling(model: &Model, steps: usize) -> Result<Vec<CubePoint>> {
    (1..=4)
        .map(|cubes| {
            let units = pim_hw::fixed::DEFAULT_UNITS * cubes;
            let cfg =
                EngineConfig::preset(SystemPreset::Hetero).with_pim_complement(4 * cubes, units);
            let r = simulate(model, &SystemConfig::Engine(cfg), steps)?;
            Ok(CubePoint {
                cubes,
                ff_units: units,
                step_seconds: r.per_step_time().seconds(),
            })
        })
        .collect()
}

/// One point of the batch-size sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct BatchPoint {
    /// Minibatch size.
    pub batch: usize,
    /// Hetero-PIM seconds per step.
    pub hetero_step_seconds: f64,
    /// Hetero-PIM seconds per *sample* (step time / batch).
    pub hetero_sample_seconds: f64,
}

/// Sweeps the minibatch size for a model kind (the paper fixes TensorFlow's
/// defaults; this ablation shows the throughput trend behind that choice).
///
/// # Errors
///
/// Propagates simulation failures.
pub fn batch_sweep(
    kind: pim_models::ModelKind,
    batches: &[usize],
    steps: usize,
) -> Result<Vec<BatchPoint>> {
    batches
        .iter()
        .map(|&batch| {
            let model = Model::build_with_batch(kind, batch)?;
            let r = simulate(&model, &SystemPreset::Hetero.into(), steps)?;
            let step = r.per_step_time().seconds();
            Ok(BatchPoint {
                batch,
                hetero_step_seconds: step,
                hetero_sample_seconds: step / batch as f64,
            })
        })
        .collect()
}

/// First-order estimate of a GPU-attached heterogeneous PIM (§II-D): the
/// GPU keeps its compute but its stacked memory grows the fixed-function
/// complement; PIM-side execution removes the working-set spill (data stays
/// in the stack) while the GPU's coarse kernel scheduling limits
/// fine-grained offloading to the fully multiply/add ops.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct GpuAttachedEstimate {
    /// Plain GPU per-step seconds.
    pub gpu_seconds: f64,
    /// GPU + in-stack fixed-function PIMs, per-step seconds.
    pub gpu_pim_seconds: f64,
}

/// Estimates the GPU-attached configuration for one model.
///
/// # Errors
///
/// Propagates cost-model failures.
pub fn gpu_attached(model: &Model, gpu: &GpuDevice) -> Result<GpuAttachedEstimate> {
    let utilization = model.kind().gpu_utilization().unwrap_or(0.5);
    let costs = model.graph().costs()?;
    let stack = StackConfig::hmc2();
    let pool = FixedPoolConfig::paper_default(&stack);

    let mut gpu_time = Seconds::ZERO;
    let mut hybrid_time = Seconds::ZERO;
    for cost in costs {
        let on_gpu = gpu.estimate_op(cost, utilization);
        gpu_time += on_gpu.time;
        if cost.class == pim_tensor::cost::OffloadClass::FullyMulAdd {
            // The GPU offloads whole mul/add kernels into its stack; the
            // kernel-fusion constraint (§II-D) bars finer-grained splits.
            let units = cost.ff_parallelism.min(pool.total_units).max(1);
            let in_stack =
                pim_hw::fixed::FixedFunctionPool::new(pool.clone()).estimate_ma(cost, units, true);
            hybrid_time += on_gpu.time.min(in_stack.time);
        } else {
            hybrid_time += on_gpu.time;
        }
    }
    let staging = gpu.staging_time(minibatch_bytes(model.graph()));
    let spill = gpu.spill_time(working_set(model.graph()));
    Ok(GpuAttachedEstimate {
        gpu_seconds: (gpu_time + staging + spill).seconds(),
        // In-stack offloads keep the spilled tensors resident in the cube.
        gpu_pim_seconds: (hybrid_time + staging + spill * 0.3).seconds(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_models::ModelKind;

    #[test]
    fn larger_batches_amortize_per_step_overheads() {
        let pts = batch_sweep(ModelKind::AlexNet, &[4, 16, 64], 2).unwrap();
        assert_eq!(pts.len(), 3);
        // Per-step time grows with batch...
        assert!(pts[2].hetero_step_seconds > pts[0].hetero_step_seconds);
        // ...but per-sample time shrinks (throughput improves).
        assert!(pts[2].hetero_sample_seconds < pts[0].hetero_sample_seconds);
    }

    #[test]
    fn higher_coverage_is_never_much_worse() {
        let model = Model::build_with_batch(ModelKind::AlexNet, 16).unwrap();
        let pts = coverage_sweep(&model, &[0.5, 0.9, 0.99], 2).unwrap();
        assert_eq!(pts.len(), 3);
        // Offloading more of the heavy tail should help (x = 90 close to
        // the knee): the 0.9 point beats the 0.5 point.
        assert!(pts[1].step_seconds <= pts[0].step_seconds * 1.05);
    }

    #[test]
    fn more_cubes_never_hurt_and_eventually_saturate() {
        let model = Model::build_with_batch(ModelKind::Vgg19, 16).unwrap();
        let pts = cube_scaling(&model, 2).unwrap();
        assert_eq!(pts.len(), 4);
        assert!(pts[3].step_seconds <= pts[0].step_seconds * 1.02);
        // Diminishing returns: the 3->4 cube gain is smaller than 1->2.
        let g12 = pts[0].step_seconds - pts[1].step_seconds;
        let g34 = pts[2].step_seconds - pts[3].step_seconds;
        assert!(g34 <= g12 + 1e-9, "g12={g12} g34={g34}");
    }

    #[test]
    fn gpu_attached_pim_helps_spilling_models_most() {
        let gpu = GpuDevice::gtx_1080_ti();
        let resnet = Model::build(ModelKind::ResNet50).unwrap();
        let est = gpu_attached(&resnet, &gpu).unwrap();
        assert!(est.gpu_pim_seconds < est.gpu_seconds);
        // The spill reduction dominates for ResNet-50.
        assert!(est.gpu_seconds / est.gpu_pim_seconds > 1.3);
    }
}
