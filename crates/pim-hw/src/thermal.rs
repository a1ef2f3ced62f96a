//! HotSpot-lite steady-state thermal model of the logic die.
//!
//! Validates the §IV-D placement policy: per-bank temperature rise is the
//! bank's power through its position-dependent thermal resistance plus a
//! lateral-coupling share of its grid neighbors.

use crate::placement::{bank_positions, thermal_aware_placement, uniform_placement};
use serde::Serialize;

/// Ambient (heat-sink side) temperature in Celsius.
pub const AMBIENT_C: f64 = 45.0;

/// DRAM reliability ceiling in Celsius (standard 3D-stack constraint).
pub const THERMAL_LIMIT_C: f64 = 85.0;

/// Fraction of a neighbor's power that couples laterally.
const COUPLING: f64 = 0.15;

/// Steady-state temperature of each bank for a unit placement.
///
/// `watts_per_unit` is the dynamic power of one busy fixed-function unit.
///
/// # Examples
///
/// ```
/// use pim_hw::thermal::{bank_temperatures, AMBIENT_C};
/// use pim_hw::placement::thermal_aware_placement;
///
/// let temps = bank_temperatures(&thermal_aware_placement(444, 32), 0.027);
/// assert!(temps.iter().all(|&t| t > AMBIENT_C));
/// ```
pub fn bank_temperatures(placement: &[usize], watts_per_unit: f64) -> Vec<f64> {
    let banks = placement.len();
    let positions = bank_positions(banks);
    let cols = {
        // Match the grid used by `bank_positions`.
        let mut c = (banks as f64).sqrt().ceil() as usize;
        while !banks.is_multiple_of(c) {
            c += 1;
        }
        c
    };
    let rows = banks / cols;
    let power: Vec<f64> = placement
        .iter()
        .map(|&u| u as f64 * watts_per_unit)
        .collect();
    (0..banks)
        .map(|i| {
            let (r, c) = (i / cols, i % cols);
            let mut p = power[i];
            let mut neighbors = 0.0;
            if r > 0 {
                neighbors += power[i - cols];
            }
            if r + 1 < rows {
                neighbors += power[i + cols];
            }
            if c > 0 {
                neighbors += power[i - 1];
            }
            if c + 1 < cols {
                neighbors += power[i + 1];
            }
            p += COUPLING * neighbors;
            AMBIENT_C + positions[i].thermal_resistance() * p
        })
        .collect()
}

/// Peak bank temperature for a placement.
pub fn peak_temperature(placement: &[usize], watts_per_unit: f64) -> f64 {
    bank_temperatures(placement, watts_per_unit)
        .into_iter()
        .fold(f64::NEG_INFINITY, f64::max)
}

/// Thermal report comparing the paper's placement against a uniform one.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ThermalReport {
    /// Peak temperature under the thermal-aware placement.
    pub thermal_aware_peak_c: f64,
    /// Peak temperature under uniform placement.
    pub uniform_peak_c: f64,
    /// True when the thermal-aware placement stays below the DRAM limit.
    pub within_limit: bool,
}

/// Evaluates both placements for a pool of `units` over `banks`.
pub fn evaluate_placements(units: usize, banks: usize, watts_per_unit: f64) -> ThermalReport {
    let aware = peak_temperature(&thermal_aware_placement(units, banks), watts_per_unit);
    let uniform = peak_temperature(&uniform_placement(units, banks), watts_per_unit);
    ThermalReport {
        thermal_aware_peak_c: aware,
        uniform_peak_c: uniform,
        within_limit: aware <= THERMAL_LIMIT_C,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_common::rng::check;

    #[test]
    fn paper_configuration_is_thermally_feasible() {
        let report = evaluate_placements(444, 32, 0.027);
        assert!(report.within_limit, "peak {}", report.thermal_aware_peak_c);
    }

    #[test]
    fn thermal_aware_beats_uniform_placement() {
        // The §IV-D rationale: pushing units to edge/corner banks lowers
        // the hottest bank.
        let report = evaluate_placements(444, 32, 0.027);
        assert!(
            report.thermal_aware_peak_c < report.uniform_peak_c,
            "aware {} vs uniform {}",
            report.thermal_aware_peak_c,
            report.uniform_peak_c
        );
    }

    #[test]
    fn idle_die_sits_at_ambient() {
        let temps = bank_temperatures(&vec![0; 32], 0.027);
        assert!(temps.iter().all(|&t| (t - AMBIENT_C).abs() < 1e-9));
    }

    #[test]
    fn more_power_is_never_cooler() {
        check(64, "more_power_is_never_cooler", |g| {
            let units = g.draw(1usize..445);
            let placement = thermal_aware_placement(units, 32);
            let cool = peak_temperature(&placement, 0.01);
            let hot = peak_temperature(&placement, 0.05);
            assert!(hot >= cool);
        });
    }
}
