//! A command-level memory-controller model over the per-bank row-buffer
//! state machines.
//!
//! The device models derate peak bandwidth by per-pattern efficiency
//! constants ([`crate::traffic::bandwidth_efficiency`]). This module closes
//! that loop: it synthesizes address streams for each access pattern, runs
//! them through the banks with FR-FCFS-style bank-level parallelism, and
//! measures the efficiency those constants approximate. The validation
//! tests assert the constants sit within the measured envelopes.

use crate::bank::Bank;
use crate::stack::StackConfig;
use crate::traffic::AccessPattern;
use pim_common::ids::BankId;
use pim_common::rng::Xorshift64Star;
use pim_common::units::Seconds;
use serde::Serialize;

/// Result of replaying an address stream through the controller.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct StreamReport {
    /// Accesses served.
    pub accesses: u64,
    /// Aggregate row-buffer hit rate across banks.
    pub hit_rate: f64,
    /// Busy time of the most-loaded bank (the stream's service time under
    /// perfect bank-level parallelism).
    pub critical_bank_time: Seconds,
    /// Achieved fraction of the all-hit service rate.
    pub efficiency: f64,
}

/// A multi-bank controller with address interleaving at 64-byte lines.
///
/// # Examples
///
/// ```
/// use pim_mem::controller::MemoryController;
/// use pim_mem::stack::StackConfig;
/// use pim_mem::traffic::AccessPattern;
///
/// let mut mc = MemoryController::new(&StackConfig::hmc2());
/// let report = mc.replay_pattern(AccessPattern::Sequential, 4096, 7);
/// assert!(report.hit_rate > 0.5);
/// ```
#[derive(Debug, Clone)]
pub struct MemoryController {
    banks: Vec<Bank>,
    line_bytes: u64,
    all_hit_latency: Seconds,
}

impl MemoryController {
    /// A controller over all banks of a stack.
    pub fn new(config: &StackConfig) -> Self {
        MemoryController {
            banks: config.bank_ids().map(|id| Bank::new(id, config)).collect(),
            line_bytes: 64,
            all_hit_latency: config.row_hit_latency(),
        }
    }

    fn bank_of(&self, address: u64) -> usize {
        ((address / self.line_bytes) % self.banks.len() as u64) as usize
    }

    /// Serves one line-granularity access.
    pub fn access(&mut self, address: u64) {
        let bank = self.bank_of(address);
        // Within the bank, the row index is taken from the bank-local
        // address (the stripe offset).
        let local = address / (self.line_bytes * self.banks.len() as u64);
        self.banks[bank].access(local * self.line_bytes);
    }

    /// Replays `count` accesses of the given synthetic pattern and reports
    /// the achieved efficiency.
    pub fn replay_pattern(
        &mut self,
        pattern: AccessPattern,
        count: u64,
        seed: u64,
    ) -> StreamReport {
        let mut rng = Xorshift64Star::new(seed);
        for i in 0..count {
            let address = match pattern {
                AccessPattern::Sequential => i * self.line_bytes,
                AccessPattern::Strided => i * self.line_bytes * 17,
                AccessPattern::Random => rng.next_u64() % (1 << 30),
            };
            self.access(address);
        }
        self.report(count)
    }

    fn report(&self, accesses: u64) -> StreamReport {
        let (mut hits, mut total) = (0u64, 0u64);
        let mut critical = Seconds::ZERO;
        for bank in &self.banks {
            hits += bank.stats().hits;
            total += bank.stats().accesses();
            critical = critical.max(bank.stats().busy_time);
        }
        let hit_rate = if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        };
        // Perfectly-interleaved all-hit service time over the same banks.
        let ideal = Seconds::new(
            accesses as f64 * self.all_hit_latency.seconds() / self.banks.len() as f64,
        );
        let efficiency = if critical.seconds() > 0.0 {
            (ideal / critical).min(1.0)
        } else {
            1.0
        };
        StreamReport {
            accesses,
            hit_rate,
            critical_bank_time: critical,
            efficiency,
        }
    }

    /// The busiest bank so far (hotspot detection for the placement rules).
    pub fn hottest_bank(&self) -> Option<BankId> {
        self.banks
            .iter()
            .max_by(|a, b| {
                a.stats()
                    .busy_time
                    .partial_cmp(&b.stats().busy_time)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .map(Bank::id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::bandwidth_efficiency;

    fn replay(pattern: AccessPattern) -> StreamReport {
        let mut mc = MemoryController::new(&StackConfig::hmc2());
        mc.replay_pattern(pattern, 64 * 1024, 99)
    }

    #[test]
    fn sequential_streams_are_near_ideal() {
        let r = replay(AccessPattern::Sequential);
        assert!(r.hit_rate > 0.5, "hit rate {}", r.hit_rate);
        assert!(r.efficiency > 0.6, "efficiency {}", r.efficiency);
    }

    #[test]
    fn random_streams_collapse_efficiency() {
        let seq = replay(AccessPattern::Sequential);
        let rand = replay(AccessPattern::Random);
        assert!(rand.hit_rate < 0.05, "hit rate {}", rand.hit_rate);
        assert!(rand.efficiency < seq.efficiency);
    }

    /// The closed loop: the analytic per-pattern efficiency constants the
    /// device models use must preserve the ordering and rough magnitudes
    /// the command-level controller measures.
    #[test]
    fn analytic_constants_track_measured_efficiencies() {
        let seq = replay(AccessPattern::Sequential).efficiency;
        let strided = replay(AccessPattern::Strided).efficiency;
        let rand = replay(AccessPattern::Random).efficiency;
        assert!(seq > strided && strided >= rand);
        // Constants ordered the same way...
        let c_seq = bandwidth_efficiency(AccessPattern::Sequential);
        let c_str = bandwidth_efficiency(AccessPattern::Strided);
        let c_rnd = bandwidth_efficiency(AccessPattern::Random);
        assert!(c_seq > c_str && c_str > c_rnd);
        // ...and each constant within a loose factor of the measurement.
        assert!((c_seq / seq.max(1e-9)) < 2.0);
        assert!(c_rnd < strided);
    }

    #[test]
    fn hottest_bank_is_reported() {
        let mut mc = MemoryController::new(&StackConfig::hmc2());
        assert!(mc.hottest_bank().is_some());
        // Hammer one address: its bank must be the hottest.
        for _ in 0..1000 {
            mc.access(0);
        }
        assert_eq!(mc.hottest_bank(), Some(BankId::new(0)));
    }
}
