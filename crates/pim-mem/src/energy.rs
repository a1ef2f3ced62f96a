//! Memory access energy accounting.
//!
//! Energy constants follow the standard published figures for the respective
//! technologies (in picojoules per bit moved): off-chip DDR4 is the most
//! expensive path, the HMC external SerDes link is cheaper, and the internal
//! TSV path that PIM logic uses is cheapest. That ordering — not the exact
//! picojoule values — is what produces the paper's energy results.

use pim_common::units::{Bytes, Joules};
use serde::{Deserialize, Serialize};

/// Which path a byte travels determines its energy cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MemoryPath {
    /// Host CPU to planar DDR4 (DIMM interface + DRAM core).
    HostDdr4,
    /// GPU to on-board GDDR5X.
    GpuGddr5x,
    /// Host CPU to the 3D stack over the external serial link.
    StackExternal,
    /// PIM logic to the 3D stack over internal TSVs.
    StackInternal,
}

impl MemoryPath {
    /// Energy to move one bit along this path, in picojoules.
    pub fn picojoules_per_bit(self) -> f64 {
        match self {
            MemoryPath::HostDdr4 => 39.0,
            MemoryPath::GpuGddr5x => 14.0,
            MemoryPath::StackExternal => 10.5,
            MemoryPath::StackInternal => 3.7,
        }
    }

    /// Energy to move `volume` along this path.
    ///
    /// # Examples
    ///
    /// ```
    /// use pim_mem::energy::MemoryPath;
    /// use pim_common::units::Bytes;
    ///
    /// let internal = MemoryPath::StackInternal.transfer_energy(Bytes::new(1e6));
    /// let external = MemoryPath::HostDdr4.transfer_energy(Bytes::new(1e6));
    /// assert!(internal < external);
    /// ```
    pub fn transfer_energy(self, volume: Bytes) -> Joules {
        Joules::new(volume.bytes() * 8.0 * self.picojoules_per_bit() * 1e-12)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_common::rng::check;

    #[test]
    fn internal_is_cheapest_path() {
        let v = Bytes::new(1e6);
        let internal = MemoryPath::StackInternal.transfer_energy(v);
        for path in [
            MemoryPath::HostDdr4,
            MemoryPath::GpuGddr5x,
            MemoryPath::StackExternal,
        ] {
            assert!(internal < path.transfer_energy(v), "{path:?}");
        }
    }

    #[test]
    fn zero_volume_costs_nothing() {
        assert_eq!(
            MemoryPath::HostDdr4.transfer_energy(Bytes::ZERO),
            Joules::ZERO
        );
    }

    #[test]
    fn energy_is_linear_in_volume() {
        check(64, "energy_is_linear_in_volume", |g| {
            let bytes = g.draw(1.0f64..1e12);
            let e1 = MemoryPath::StackInternal.transfer_energy(Bytes::new(bytes));
            let e2 = MemoryPath::StackInternal.transfer_energy(Bytes::new(2.0 * bytes));
            assert!((e2.joules() / e1.joules() - 2.0).abs() < 1e-9);
        });
    }

    #[test]
    fn energy_is_nonnegative() {
        check(64, "energy_is_nonnegative", |g| {
            let bytes = g.draw(0.0f64..1e12);
            for path in [
                MemoryPath::HostDdr4,
                MemoryPath::GpuGddr5x,
                MemoryPath::StackExternal,
                MemoryPath::StackInternal,
            ] {
                assert!(path.transfer_energy(Bytes::new(bytes)).is_valid());
            }
        });
    }
}
