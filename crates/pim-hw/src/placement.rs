//! Thermal-aware placement of fixed-function units over the banks.
//!
//! §IV-D: "we place more fixed-function PIMs on edge and corner banks than
//! on central banks. The rationale behind is that the banks at the edge and
//! corner have better thermal dissipation paths."

use serde::{Deserialize, Serialize};

/// Position class of a bank in the logic-die floorplan grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BankPosition {
    /// Four grid corners: best dissipation.
    Corner,
    /// Non-corner perimeter banks.
    Edge,
    /// Interior banks: worst dissipation.
    Center,
}

impl BankPosition {
    /// Relative unit-placement weight (corner > edge > center).
    pub fn weight(self) -> usize {
        match self {
            BankPosition::Corner => 3,
            BankPosition::Edge => 2,
            BankPosition::Center => 1,
        }
    }

    /// Steady-state thermal resistance toward ambient, kelvin/watt.
    pub fn thermal_resistance(self) -> f64 {
        match self {
            BankPosition::Corner => 1.0,
            BankPosition::Edge => 1.4,
            BankPosition::Center => 2.2,
        }
    }
}

/// Floorplan grid dimensions for a bank count (8x4 for the 32-bank stack).
fn grid_dims(banks: usize) -> (usize, usize) {
    let mut cols = (banks as f64).sqrt().ceil() as usize;
    while !banks.is_multiple_of(cols) {
        cols += 1;
    }
    (banks / cols, cols)
}

/// Position class of each bank in the floorplan.
pub fn bank_positions(banks: usize) -> Vec<BankPosition> {
    let (rows, cols) = grid_dims(banks);
    let mut positions = Vec::with_capacity(banks);
    for r in 0..rows {
        for c in 0..cols {
            let on_row_edge = r == 0 || r == rows - 1;
            let on_col_edge = c == 0 || c == cols - 1;
            positions.push(if on_row_edge && on_col_edge {
                BankPosition::Corner
            } else if on_row_edge || on_col_edge {
                BankPosition::Edge
            } else {
                BankPosition::Center
            });
        }
    }
    positions
}

/// Distributes `units` over `banks` proportionally to thermal weight, using
/// largest-remainder rounding so the total is exact.
///
/// # Examples
///
/// ```
/// use pim_hw::placement::thermal_aware_placement;
/// let placement = thermal_aware_placement(444, 32);
/// assert_eq!(placement.iter().sum::<usize>(), 444);
/// // Corner banks (index 0) carry more units than central ones.
/// assert!(placement[0] > placement[9]);
/// ```
pub fn thermal_aware_placement(units: usize, banks: usize) -> Vec<usize> {
    let positions = bank_positions(banks);
    let total_weight: usize = positions.iter().map(|p| p.weight()).sum();
    let mut placement = Vec::with_capacity(banks);
    let mut remainders: Vec<(usize, f64)> = Vec::with_capacity(banks);
    let mut assigned = 0usize;
    for (i, pos) in positions.iter().enumerate() {
        let exact = units as f64 * pos.weight() as f64 / total_weight as f64;
        let floor = exact.floor() as usize;
        placement.push(floor);
        assigned += floor;
        remainders.push((i, exact - floor as f64));
    }
    remainders.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    for &(idx, _) in remainders.iter().take(units - assigned) {
        placement[idx] += 1;
    }
    placement
}

/// A uniform placement for comparison (ablation of the thermal policy).
pub fn uniform_placement(units: usize, banks: usize) -> Vec<usize> {
    let base = units / banks;
    let extra = units % banks;
    (0..banks).map(|i| base + usize::from(i < extra)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_common::rng::check;

    #[test]
    fn grid_for_32_banks_is_4x8() {
        assert_eq!(grid_dims(32), (4, 8));
    }

    #[test]
    fn position_census_for_32_banks() {
        let pos = bank_positions(32);
        let corners = pos.iter().filter(|p| **p == BankPosition::Corner).count();
        let edges = pos.iter().filter(|p| **p == BankPosition::Edge).count();
        let centers = pos.iter().filter(|p| **p == BankPosition::Center).count();
        assert_eq!((corners, edges, centers), (4, 16, 12));
    }

    #[test]
    fn placement_is_exact_and_ordered() {
        let placement = thermal_aware_placement(444, 32);
        assert_eq!(placement.iter().sum::<usize>(), 444);
        let pos = bank_positions(32);
        let at = |want: BankPosition| {
            placement
                .iter()
                .zip(&pos)
                .find(|(_, p)| **p == want)
                .map(|(u, _)| *u)
                .unwrap()
        };
        assert!(at(BankPosition::Corner) > at(BankPosition::Edge));
        assert!(at(BankPosition::Edge) > at(BankPosition::Center));
    }

    #[test]
    fn placements_always_sum_to_units() {
        check(64, "placements_always_sum_to_units", |g| {
            let units = g.draw(1usize..2000);
            let banks_pow = g.draw(2usize..7);
            let banks = 1 << banks_pow;
            assert_eq!(
                thermal_aware_placement(units, banks).iter().sum::<usize>(),
                units
            );
            assert_eq!(uniform_placement(units, banks).iter().sum::<usize>(), units);
        });
    }
}
