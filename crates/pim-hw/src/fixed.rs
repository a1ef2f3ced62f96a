//! The fixed-function PIM pool: 32-bit floating-point multiplier/adder
//! pairs distributed across the 32 banks of the 3D stack (§IV-D).
//!
//! Each "unit" is one multiplier+adder pair operating on row-buffer-wide
//! operands through the buffering mechanism the paper adopts from PRIME
//! (its reference 5), giving it a SIMD lane group per cycle. An operation occupies
//! `ff_parallelism` units (e.g. an 11x11 convolution window occupies
//! 121 multipliers + 120 adders = 241 units); the rest stay free for the
//! operation pipeline to fill.

use crate::params::{ComputeEstimate, DeviceParams};
use crate::placement::thermal_aware_placement;
use pim_common::units::{Bytes, Joules, Seconds, Watts};
use pim_common::{PimError, Result};
use pim_mem::energy::MemoryPath;
use pim_mem::stack::StackConfig;
use pim_mem::traffic::bandwidth_efficiency;
use pim_tensor::cost::CostProfile;
use serde::Serialize;

/// Default number of fixed-function units the logic die fits (the paper's
/// design-space exploration result; `pim_hw::power` re-derives it).
pub const DEFAULT_UNITS: usize = 444;

/// Configuration of the fixed-function pool.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FixedPoolConfig {
    /// Total multiplier/adder pairs on the logic die.
    pub total_units: usize,
    /// Elements each unit processes per cycle through the row-buffer
    /// operand buffering (PRIME-style).
    pub simd_width: f64,
    /// Working frequency in hertz (the stack clock).
    pub frequency_hz: f64,
    /// Dynamic power per busy unit.
    pub per_unit_power: Watts,
    /// Cost of spawning one kernel onto the pool from the host.
    pub host_dispatch: Seconds,
    /// Cost of spawning one kernel onto the pool from the programmable PIM
    /// (the recursive-kernel path — much cheaper, §III-B).
    pub pim_dispatch: Seconds,
    /// Units per bank, thermal-aware (edge/corner banks carry more).
    pub placement: Vec<usize>,
    /// Internal bandwidth available to the pool, bytes/second.
    pub bandwidth: f64,
}

impl FixedPoolConfig {
    /// The paper's configuration on a given stack: 444 units, placed
    /// edge/corner-heavy over the 32 banks, clocked at the stack frequency.
    pub fn paper_default(stack: &StackConfig) -> Self {
        FixedPoolConfig {
            total_units: DEFAULT_UNITS,
            simd_width: 44.0,
            frequency_hz: stack.frequency_hz(),
            per_unit_power: Watts::new(0.027),
            host_dispatch: Seconds::new(4e-6),
            pim_dispatch: Seconds::new(0.3e-6),
            placement: thermal_aware_placement(DEFAULT_UNITS, stack.banks()),
            bandwidth: stack.internal_bandwidth(),
        }
    }

    /// Same configuration with a different unit count (the §VI-D
    /// programmable-PIM-scaling study trades units for ARM cores).
    pub fn with_units(stack: &StackConfig, units: usize) -> Self {
        let mut cfg = FixedPoolConfig::paper_default(stack);
        cfg.total_units = units;
        cfg.placement = thermal_aware_placement(units, stack.banks());
        cfg
    }

    /// Aggregate multiply/add throughput of `units` busy units, flops/s.
    pub fn throughput(&self, units: usize) -> f64 {
        units as f64 * self.simd_width * self.frequency_hz
    }
}

/// The fixed-function pool with unit-allocation state.
///
/// # Examples
///
/// ```
/// use pim_hw::fixed::{FixedFunctionPool, FixedPoolConfig};
/// use pim_mem::stack::StackConfig;
///
/// let mut pool = FixedFunctionPool::new(FixedPoolConfig::paper_default(&StackConfig::hmc2()));
/// let grant = pool.grant(241).unwrap(); // the 11x11 conv example
/// assert_eq!(grant, 241);
/// assert_eq!(pool.free_units(), 444 - 241);
/// pool.release(grant);
/// assert_eq!(pool.free_units(), 444);
/// ```
#[derive(Debug, Clone)]
pub struct FixedFunctionPool {
    config: FixedPoolConfig,
    free_units: usize,
}

impl FixedFunctionPool {
    /// Creates an idle pool.
    pub fn new(config: FixedPoolConfig) -> Self {
        FixedFunctionPool {
            free_units: config.total_units,
            config,
        }
    }

    /// The pool configuration.
    pub fn config(&self) -> &FixedPoolConfig {
        &self.config
    }

    /// Units currently unallocated.
    pub fn free_units(&self) -> usize {
        self.free_units
    }

    /// Total units in the pool.
    pub fn total_units(&self) -> usize {
        self.config.total_units
    }

    /// Grants up to `want` units (the paper's dynamic usage: "an operation
    /// can dynamically change its usage of PIMs, depending on the
    /// availability of PIMs").
    ///
    /// # Errors
    ///
    /// Returns [`PimError::ResourceExhausted`] when the pool is empty.
    pub fn grant(&mut self, want: usize) -> Result<usize> {
        if self.free_units == 0 {
            return Err(PimError::ResourceExhausted {
                resource: "fixed-function units",
                requested: want as f64,
                available: 0.0,
            });
        }
        let granted = want.min(self.free_units).max(1);
        self.free_units -= granted;
        Ok(granted)
    }

    /// Returns units to the pool.
    ///
    /// # Panics
    ///
    /// Panics in debug builds when more units are released than allocated.
    pub fn release(&mut self, units: usize) {
        debug_assert!(self.free_units + units <= self.config.total_units);
        self.free_units = (self.free_units + units).min(self.config.total_units);
    }

    /// Estimates the multiply/add portion of a cost profile on `units`
    /// granted units. `from_host` selects the expensive host-spawn path or
    /// the cheap recursive-kernel path.
    pub fn estimate_ma(
        &self,
        cost: &CostProfile,
        units: usize,
        from_host: bool,
    ) -> ComputeEstimate {
        let dispatch = if from_host {
            self.config.host_dispatch
        } else {
            self.config.pim_dispatch
        };
        let compute_time = Seconds::new(cost.ma_flops() / self.config.throughput(units.max(1)));
        let memory_time = Seconds::new(
            cost.total_bytes().bytes()
                / (self.config.bandwidth * bandwidth_efficiency(cost.pattern)),
        );
        let busy = compute_time.max(memory_time);
        let time = busy + dispatch;
        let power = self.config.per_unit_power * units as f64;
        let energy = power * time + MemoryPath::StackInternal.transfer_energy(cost.total_bytes());
        ComputeEstimate {
            time,
            compute_time,
            memory_time,
            dispatch_time: dispatch,
            energy,
        }
    }

    /// Device-parameter view of the fully allocated pool (used by baseline
    /// configurations that treat the pool as one device).
    pub fn as_device_params(&self) -> DeviceParams {
        DeviceParams {
            name: "Fixed PIM",
            ma_throughput: self.config.throughput(self.config.total_units),
            // Fixed-function units cannot execute non-mul/add work at all;
            // the tiny rate here only guards against division by zero for
            // callers that ignore capability checks.
            other_throughput: 1.0,
            control_throughput: 1.0,
            bandwidth: self.config.bandwidth,
            dispatch_overhead: self.config.host_dispatch,
            dynamic_power: self.config.per_unit_power * self.config.total_units as f64,
            memory_path: MemoryPath::StackInternal,
        }
    }

    /// Dynamic energy of keeping `units` busy for `time` (used by the
    /// engine's utilization accounting).
    pub fn busy_energy(&self, units: usize, time: Seconds) -> Joules {
        (self.config.per_unit_power * units as f64) * time
    }

    /// Total bytes the pool can stream in `time` — used to sanity-check
    /// pipeline admission.
    pub fn streamable(&self, time: Seconds) -> Bytes {
        Bytes::new(self.config.bandwidth * time.seconds())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_common::units::Bytes;
    use pim_tensor::cost::OffloadClass;

    fn pool() -> FixedFunctionPool {
        FixedFunctionPool::new(FixedPoolConfig::paper_default(&StackConfig::hmc2()))
    }

    fn conv_like(ma: f64) -> CostProfile {
        CostProfile::compute(
            ma / 2.0,
            ma / 2.0,
            0.0,
            Bytes::new(ma / 50.0),
            Bytes::new(ma / 100.0),
            OffloadClass::FullyMulAdd,
            241,
        )
    }

    #[test]
    fn paper_pool_has_444_units() {
        assert_eq!(pool().total_units(), DEFAULT_UNITS);
        assert_eq!(
            pool().config().placement.iter().sum::<usize>(),
            DEFAULT_UNITS
        );
    }

    #[test]
    fn grants_are_capped_by_free_units() {
        let mut p = pool();
        assert_eq!(p.grant(1000).unwrap(), 444);
        assert!(p.grant(1).is_err());
        p.release(444);
        assert_eq!(p.free_units(), 444);
    }

    #[test]
    fn alexnet_conv_utilization_is_54_percent() {
        // Paper §III-C: 241 of 444 units = 54%.
        let mut p = pool();
        let got = p.grant(241).unwrap();
        assert_eq!(got, 241);
        assert_eq!(p.free_units(), DEFAULT_UNITS - 241);
    }

    #[test]
    fn more_units_run_faster() {
        let p = pool();
        let cost = conv_like(1e10);
        let slow = p.estimate_ma(&cost, 100, true);
        let fast = p.estimate_ma(&cost, 400, true);
        assert!(fast.time < slow.time);
    }

    #[test]
    fn recursive_dispatch_is_cheaper_than_host_dispatch() {
        let p = pool();
        let cost = conv_like(1e6);
        let host = p.estimate_ma(&cost, 241, true);
        let rc = p.estimate_ma(&cost, 241, false);
        assert!(rc.time < host.time);
        let expected = (p.config().host_dispatch - p.config().pim_dispatch).seconds();
        assert!(((host.time - rc.time).seconds() - expected).abs() < 1e-12);
    }

    #[test]
    fn frequency_scaling_raises_throughput() {
        let stack2 = StackConfig::hmc2().with_frequency_multiplier(2.0).unwrap();
        let base = FixedPoolConfig::paper_default(&StackConfig::hmc2());
        let fast = FixedPoolConfig::paper_default(&stack2);
        assert_eq!(fast.throughput(444), 2.0 * base.throughput(444));
    }

    #[test]
    fn full_pool_peak_is_6_1_tflops() {
        let cfg = FixedPoolConfig::paper_default(&StackConfig::hmc2());
        let peak = cfg.throughput(444);
        assert!((5.9e12..6.3e12).contains(&peak), "peak = {peak:e}");
    }
}
