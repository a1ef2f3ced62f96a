//! The unified compute-device abstraction every simulated element
//! implements.
//!
//! The engine's placement policy, the shared event core, and the analytic
//! baselines (GPU, Neurocube) all consume devices through this trait, so a
//! single measurement path produces every `ExecutionReport` of the
//! evaluation. A device answers three questions:
//!
//! 1. *estimate* — how long and how much energy one operation takes
//!    ([`Device::estimate`]),
//! 2. *capability* — whether it can execute the operation at all
//!    ([`Device::accepts`]; the fixed-function pool rejects anything that
//!    is not pure multiply/add),
//! 3. *energy* — its dynamic power while busy ([`Device::dynamic_power`]).
//!
//! Idleness is not a device question: the engine's resource ledger
//! counts free and quarantined units itself.

use crate::arm::{ProgrammablePim, ProgrammablePool};
use crate::cpu::CpuDevice;
use crate::fixed::FixedFunctionPool;
use crate::gpu::GpuDevice;
use crate::neurocube::Neurocube;
use crate::params::ComputeEstimate;
use pim_common::units::Watts;
use pim_tensor::cost::{CostProfile, OffloadClass};
use serde::Serialize;

/// A compute element the simulation core can schedule work onto.
pub trait Device {
    /// Display name ("CPU", "Progr PIM", "GPU", ...).
    fn name(&self) -> &'static str;

    /// Timing/energy estimate for executing one operation in full.
    fn estimate(&self, cost: &CostProfile) -> ComputeEstimate;

    /// Whether this device is capable of executing the operation at all.
    /// Placement must never schedule a rejected op here.
    fn accepts(&self, _cost: &CostProfile) -> bool {
        true
    }

    /// Dynamic power drawn while busy.
    fn dynamic_power(&self) -> Watts;
}

impl Device for CpuDevice {
    fn name(&self) -> &'static str {
        self.params().name
    }

    fn estimate(&self, cost: &CostProfile) -> ComputeEstimate {
        self.estimate_op(cost)
    }

    fn dynamic_power(&self) -> Watts {
        self.params().dynamic_power
    }
}

impl Device for ProgrammablePim {
    fn name(&self) -> &'static str {
        self.params().name
    }

    fn estimate(&self, cost: &CostProfile) -> ComputeEstimate {
        self.estimate_op(cost)
    }

    fn dynamic_power(&self) -> Watts {
        self.params().dynamic_power
    }
}

impl Device for ProgrammablePool {
    fn name(&self) -> &'static str {
        self.params().name
    }

    fn estimate(&self, cost: &CostProfile) -> ComputeEstimate {
        self.estimate_op(cost)
    }

    fn dynamic_power(&self) -> Watts {
        self.params().dynamic_power
    }
}

impl Device for FixedFunctionPool {
    fn name(&self) -> &'static str {
        "Fixed PIM"
    }

    /// The whole pool executing the op's multiply/add work, dispatched
    /// from the host (the baseline "Fixed PIM" view; the engine's
    /// placement uses [`FixedFunctionPool::estimate_ma`] directly for
    /// partial grants and recursive dispatch).
    fn estimate(&self, cost: &CostProfile) -> ComputeEstimate {
        self.estimate_ma(cost, self.total_units(), true)
    }

    /// Multiplier/adder pairs execute nothing but multiply/add work.
    fn accepts(&self, cost: &CostProfile) -> bool {
        cost.class == OffloadClass::FullyMulAdd
    }

    fn dynamic_power(&self) -> Watts {
        self.config().per_unit_power * self.total_units() as f64
    }
}

impl Device for Neurocube {
    fn name(&self) -> &'static str {
        self.params().name
    }

    fn estimate(&self, cost: &CostProfile) -> ComputeEstimate {
        self.estimate_op(cost)
    }

    fn dynamic_power(&self) -> Watts {
        self.params().dynamic_power
    }
}

/// The GPU baseline as a schedulable device: a [`GpuDevice`] pinned at the
/// model-specific average utilization the paper measured (§V-D). Step-level
/// PCIe effects (minibatch staging, working-set spill) stay with the
/// baseline harness in `pim-sim`, which folds them into the event core's
/// per-step epilogue.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AnalyticGpu {
    gpu: GpuDevice,
    utilization: f64,
}

impl AnalyticGpu {
    /// Wraps a GPU at a fixed average utilization.
    ///
    /// # Panics
    ///
    /// Panics in debug builds when `utilization` is outside `(0, 1]`.
    pub fn new(gpu: GpuDevice, utilization: f64) -> Self {
        debug_assert!(utilization > 0.0 && utilization <= 1.0);
        AnalyticGpu { gpu, utilization }
    }

    /// The wrapped device.
    pub fn gpu(&self) -> &GpuDevice {
        &self.gpu
    }

    /// The pinned utilization.
    pub fn utilization(&self) -> f64 {
        self.utilization
    }
}

impl Device for AnalyticGpu {
    fn name(&self) -> &'static str {
        "GPU"
    }

    fn estimate(&self, cost: &CostProfile) -> ComputeEstimate {
        self.gpu.estimate_op(cost, self.utilization)
    }

    fn dynamic_power(&self) -> Watts {
        self.gpu.dynamic_power()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixed::FixedPoolConfig;
    use pim_common::units::Bytes;
    use pim_mem::stack::StackConfig;

    fn ma_cost() -> CostProfile {
        CostProfile::compute(
            1e9,
            1e9,
            0.0,
            Bytes::new(1e7),
            Bytes::new(1e7),
            OffloadClass::FullyMulAdd,
            241,
        )
    }

    fn mixed_cost() -> CostProfile {
        CostProfile::compute(
            1e9,
            1e9,
            1e9,
            Bytes::new(1e7),
            Bytes::new(1e7),
            OffloadClass::PartiallyMulAdd { ma_fraction: 0.5 },
            241,
        )
    }

    #[test]
    fn every_device_estimates_through_the_trait() {
        let stack = StackConfig::hmc2();
        let devices: Vec<Box<dyn Device>> = vec![
            Box::new(CpuDevice::xeon_e5_2630_v3()),
            Box::new(ProgrammablePim::cortex_a9(&stack, 4)),
            Box::new(ProgrammablePool::unlimited(&stack)),
            Box::new(FixedFunctionPool::new(FixedPoolConfig::paper_default(
                &stack,
            ))),
            Box::new(Neurocube::isca16(&stack)),
            Box::new(AnalyticGpu::new(GpuDevice::gtx_1080_ti(), 0.63)),
        ];
        for device in &devices {
            let est = device.estimate(&ma_cost());
            assert!(est.time.seconds() > 0.0, "{} zero time", device.name());
            assert!(est.energy.joules() > 0.0, "{} zero energy", device.name());
            assert!(
                device.dynamic_power().watts() > 0.0,
                "{} zero power",
                device.name()
            );
            assert!(
                device.accepts(&ma_cost()),
                "{} rejects mul/add",
                device.name()
            );
        }
    }

    #[test]
    fn fixed_pool_rejects_non_muladd_work() {
        let pool = FixedFunctionPool::new(FixedPoolConfig::paper_default(&StackConfig::hmc2()));
        assert!(pool.accepts(&ma_cost()));
        assert!(!pool.accepts(&mixed_cost()));
    }

    #[test]
    fn trait_estimates_match_inherent_estimates() {
        let stack = StackConfig::hmc2();
        let cost = ma_cost();

        let cpu = CpuDevice::xeon_e5_2630_v3();
        assert_eq!(Device::estimate(&cpu, &cost), cpu.estimate_op(&cost));

        let arm = ProgrammablePim::cortex_a9(&stack, 4);
        assert_eq!(Device::estimate(&arm, &cost), arm.estimate_op(&cost));

        let gpu = AnalyticGpu::new(GpuDevice::gtx_1080_ti(), 0.63);
        assert_eq!(
            Device::estimate(&gpu, &cost),
            gpu.gpu().estimate_op(&cost, 0.63)
        );

        let pool = FixedFunctionPool::new(FixedPoolConfig::paper_default(&stack));
        assert_eq!(
            Device::estimate(&pool, &cost),
            pool.estimate_ma(&cost, pool.total_units(), true)
        );
    }
}
