//! The heterogeneous-PIM platform model (Table II, Fig. 5b).
//!
//! "All fixed-function PIMs in all memory banks form a compute device. All
//! fixed-function PIMs in a bank form a compute unit. Each programmable PIM
//! is a compute device; each core of the programmable PIM is a PE."

use pim_common::ids::DeviceId;
use pim_hw::fixed::FixedPoolConfig;
use serde::Serialize;

/// The kind of a compute device in the platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum DeviceKind {
    /// The host processor itself (ops can also run there).
    Host,
    /// The fixed-function PIM pool.
    FixedFunction,
    /// A programmable PIM.
    Programmable,
}

/// One compute device as OpenCL sees it.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ComputeDevice {
    /// Platform-unique identifier.
    pub id: DeviceId,
    /// Device kind.
    pub kind: DeviceKind,
    /// Compute units (banks for the fixed pool, 1 for the programmable
    /// PIM, cores for the host).
    pub compute_units: usize,
    /// Processing elements per compute unit.
    pub pes_per_unit: Vec<usize>,
}

/// The platform: host plus heterogeneous accelerators.
///
/// # Examples
///
/// ```
/// use pim_opencl::platform::{Platform, DeviceKind};
/// use pim_hw::fixed::FixedPoolConfig;
/// use pim_mem::stack::StackConfig;
///
/// let platform = Platform::hetero_pim(
///     8,
///     &FixedPoolConfig::paper_default(&StackConfig::hmc2()),
///     4,
/// );
/// assert_eq!(platform.devices().len(), 3);
/// let fixed = &platform.devices()[1];
/// assert_eq!(fixed.kind, DeviceKind::FixedFunction);
/// assert_eq!(fixed.compute_units, 32); // one CU per bank
/// assert_eq!(fixed.pes_per_unit.iter().sum::<usize>(), 444); // one PE per unit
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Platform {
    devices: Vec<ComputeDevice>,
}

impl Platform {
    /// Builds the heterogeneous-PIM platform: host CPU, fixed-function
    /// device (one compute unit per bank, one PE per multiplier/adder
    /// pair), and a programmable device (one PE per ARM core).
    pub fn hetero_pim(host_cores: usize, pool: &FixedPoolConfig, arm_cores: usize) -> Self {
        let devices = vec![
            ComputeDevice {
                id: DeviceId::new(0),
                kind: DeviceKind::Host,
                compute_units: host_cores,
                pes_per_unit: vec![1; host_cores],
            },
            ComputeDevice {
                id: DeviceId::new(1),
                kind: DeviceKind::FixedFunction,
                compute_units: pool.placement.len(),
                pes_per_unit: pool.placement.clone(),
            },
            ComputeDevice {
                id: DeviceId::new(2),
                kind: DeviceKind::Programmable,
                compute_units: 1,
                pes_per_unit: vec![arm_cores],
            },
        ];
        Platform { devices }
    }

    /// All devices.
    pub fn devices(&self) -> &[ComputeDevice] {
        &self.devices
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_mem::stack::StackConfig;

    fn platform() -> Platform {
        Platform::hetero_pim(8, &FixedPoolConfig::paper_default(&StackConfig::hmc2()), 4)
    }

    fn device(p: &Platform, kind: DeviceKind) -> &ComputeDevice {
        p.devices().iter().find(|d| d.kind == kind).unwrap()
    }

    #[test]
    fn fixed_device_mirrors_bank_placement() {
        let p = platform();
        let fixed = device(&p, DeviceKind::FixedFunction);
        assert_eq!(fixed.compute_units, 32);
        assert_eq!(fixed.pes_per_unit.iter().sum::<usize>(), 444);
        // Edge/corner CUs hold more PEs than central ones.
        assert!(fixed.pes_per_unit[0] > fixed.pes_per_unit[9]);
    }

    #[test]
    fn programmable_device_has_core_pes() {
        let p = platform();
        let progr = device(&p, DeviceKind::Programmable);
        assert_eq!(progr.compute_units, 1);
        assert_eq!(progr.pes_per_unit, [4]);
    }

    #[test]
    fn device_ids_are_unique() {
        let p = platform();
        let mut ids: Vec<_> = p.devices().iter().map(|d| d.id).collect();
        ids.dedup();
        assert_eq!(ids.len(), 3);
    }
}
