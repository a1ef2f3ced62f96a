//! The 3D die-stacked memory (HMC 2.0-like) model.
//!
//! The paper's §V-A: "We adopt HMC 2.0 timing parameters and configurations
//! for our evaluation of 3D memory stack. Baseline memory frequency is set to
//! 312.5 MHz … also used as the working frequency of our heterogeneous PIM."

use crate::traffic::{transfer_time, AccessPattern};
use pim_common::ids::BankId;
use pim_common::units::{Bytes, Seconds};
use pim_common::{PimError, Result};
use serde::{Deserialize, Serialize};

/// Number of banks (vertical slices) in the evaluated stack.
pub const HMC2_BANKS: usize = 32;

/// HMC 2.0 baseline frequency in hertz (312.5 MHz).
pub const HMC2_FREQUENCY_HZ: f64 = 312.5e6;

/// Configuration of one 3D die-stacked memory cube.
///
/// Two bandwidth figures matter for the paper's argument:
///
/// * `internal` — the aggregate bandwidth PIM logic sees through the TSVs,
/// * `external` — the serial-link bandwidth the host CPU sees.
///
/// # Examples
///
/// ```
/// use pim_mem::stack::StackConfig;
///
/// let base = StackConfig::hmc2();
/// let fast = base.with_frequency_multiplier(4.0).unwrap();
/// assert!(fast.internal_bandwidth() > base.internal_bandwidth());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StackConfig {
    banks: usize,
    frequency_hz: f64,
    frequency_multiplier: f64,
    /// Aggregate internal (TSV-side) bandwidth at the baseline frequency, B/s.
    internal_peak_bytes_per_sec: f64,
    /// External serial-link bandwidth toward the host, B/s.
    external_peak_bytes_per_sec: f64,
    /// DRAM row-buffer size per bank in bytes.
    row_buffer_bytes: usize,
    /// Column-access latency in memory cycles (tCL).
    t_cl_cycles: u32,
    /// Row-to-column delay in memory cycles (tRCD).
    t_rcd_cycles: u32,
    /// Row-precharge latency in memory cycles (tRP).
    t_rp_cycles: u32,
}

impl StackConfig {
    /// The HMC 2.0 configuration used throughout the paper's evaluation.
    ///
    /// Internal bandwidth 320 GB/s aggregate (HMC 2.0 class), external link
    /// bandwidth 120 GB/s (four half-width links), 32 banks, 312.5 MHz.
    pub fn hmc2() -> Self {
        StackConfig {
            banks: HMC2_BANKS,
            frequency_hz: HMC2_FREQUENCY_HZ,
            frequency_multiplier: 1.0,
            internal_peak_bytes_per_sec: 320e9,
            external_peak_bytes_per_sec: 120e9,
            row_buffer_bytes: 256,
            t_cl_cycles: 4,
            t_rcd_cycles: 4,
            t_rp_cycles: 4,
        }
    }

    /// Returns a copy running at `multiplier` times the baseline frequency.
    ///
    /// This implements the paper's §VI-D frequency-scaling study (1×/2×/4×
    /// via a phase-locked-loop module). Internal bandwidth and PIM compute
    /// rates scale with frequency; the external link does not (it is limited
    /// by the SerDes, not the stack clock).
    ///
    /// # Errors
    ///
    /// Returns [`PimError::InvalidArgument`] if `multiplier` is not a
    /// positive, finite number.
    pub fn with_frequency_multiplier(&self, multiplier: f64) -> Result<Self> {
        if !multiplier.is_finite() || multiplier <= 0.0 {
            return Err(PimError::invalid(
                "StackConfig::with_frequency_multiplier",
                format!("multiplier must be positive and finite, got {multiplier}"),
            ));
        }
        let mut cfg = self.clone();
        cfg.frequency_multiplier = multiplier;
        Ok(cfg)
    }

    /// Number of banks in the stack.
    pub fn banks(&self) -> usize {
        self.banks
    }

    /// Iterator over all bank identifiers.
    pub fn bank_ids(&self) -> impl Iterator<Item = BankId> {
        (0..self.banks).map(BankId::new)
    }

    /// Effective clock frequency in hertz (baseline × multiplier).
    pub fn frequency_hz(&self) -> f64 {
        self.frequency_hz * self.frequency_multiplier
    }

    /// The frequency multiplier relative to the HMC 2.0 baseline.
    pub fn frequency_multiplier(&self) -> f64 {
        self.frequency_multiplier
    }

    /// Aggregate internal bandwidth in bytes/second at the current frequency.
    pub fn internal_bandwidth(&self) -> f64 {
        self.internal_peak_bytes_per_sec * self.frequency_multiplier
    }

    /// External (host-facing) link bandwidth in bytes/second.
    ///
    /// Unaffected by the stack frequency multiplier; see
    /// [`StackConfig::with_frequency_multiplier`].
    pub fn external_bandwidth(&self) -> f64 {
        self.external_peak_bytes_per_sec
    }

    /// Row-buffer size per bank in bytes.
    pub fn row_buffer_bytes(&self) -> usize {
        self.row_buffer_bytes
    }

    /// Latency of a row-buffer hit (tCL) at the current frequency.
    pub fn row_hit_latency(&self) -> Seconds {
        Seconds::from_cycles(f64::from(self.t_cl_cycles), self.frequency_hz())
    }

    /// Latency of a row-buffer miss (tRP + tRCD + tCL) at the current
    /// frequency.
    pub fn row_miss_latency(&self) -> Seconds {
        Seconds::from_cycles(
            f64::from(self.t_rp_cycles + self.t_rcd_cycles + self.t_cl_cycles),
            self.frequency_hz(),
        )
    }

    /// Time for PIM logic to stream `volume` through the TSVs.
    pub fn internal_transfer_time(&self, volume: Bytes) -> Seconds {
        transfer_time(volume, self.internal_bandwidth(), AccessPattern::Sequential)
    }
}

impl Default for StackConfig {
    fn default() -> Self {
        StackConfig::hmc2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_common::rng::check;

    #[test]
    fn hmc2_matches_paper_constants() {
        let cfg = StackConfig::hmc2();
        assert_eq!(cfg.banks(), 32);
        assert_eq!(cfg.frequency_hz(), 312.5e6);
    }

    #[test]
    fn frequency_multiplier_scales_internal_bandwidth_only() {
        let base = StackConfig::hmc2();
        let fast = base.with_frequency_multiplier(2.0).unwrap();
        assert_eq!(fast.internal_bandwidth(), 2.0 * base.internal_bandwidth());
        assert_eq!(fast.external_bandwidth(), base.external_bandwidth());
        assert_eq!(fast.frequency_hz(), 2.0 * base.frequency_hz());
    }

    #[test]
    fn invalid_multiplier_is_rejected() {
        let base = StackConfig::hmc2();
        assert!(base.with_frequency_multiplier(0.0).is_err());
        assert!(base.with_frequency_multiplier(-1.0).is_err());
        assert!(base.with_frequency_multiplier(f64::NAN).is_err());
    }

    #[test]
    fn row_miss_slower_than_hit() {
        let cfg = StackConfig::hmc2();
        assert!(cfg.row_miss_latency() > cfg.row_hit_latency());
    }

    #[test]
    fn bank_ids_enumerate_all_banks() {
        let cfg = StackConfig::hmc2();
        let ids: Vec<_> = cfg.bank_ids().collect();
        assert_eq!(ids.len(), 32);
        assert_eq!(ids[0], BankId::new(0));
        assert_eq!(ids[31], BankId::new(31));
    }

    #[test]
    fn internal_faster_than_external() {
        let cfg = StackConfig::hmc2();
        assert!(cfg.internal_bandwidth() > cfg.external_bandwidth());
    }

    #[test]
    fn higher_frequency_never_slower() {
        check(64, "higher_frequency_never_slower", |g| {
            let mult = g.draw(1.0f64..8.0);
            let base = StackConfig::hmc2();
            let fast = base.with_frequency_multiplier(mult).unwrap();
            let v = Bytes::new(1e8);
            assert!(fast.internal_transfer_time(v) <= base.internal_transfer_time(v));
            assert!(fast.row_hit_latency() <= base.row_hit_latency());
        });
    }
}
