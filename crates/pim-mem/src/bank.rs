//! Per-bank row-buffer state machine.
//!
//! Fixed-function PIMs are placed inside banks and operate on data resident
//! in the same bank (paper §IV-D: "our low-level APIs allow us to map
//! operations to fixed-function PIMs that are in the same bank as input data
//! of the operations"). This module models the row-buffer behaviour a bank
//! exhibits under such access streams; the trace-driven simulator uses it to
//! estimate hit rates for detailed runs, and tests use it to validate the
//! buffering assumption.

use crate::stack::StackConfig;
use pim_common::ids::BankId;
use pim_common::units::Seconds;
use serde::{Deserialize, Serialize};

/// Outcome of a single access against the row buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RowOutcome {
    /// The requested row was already open.
    Hit,
    /// A different row was open and had to be precharged first.
    Miss,
    /// No row was open (first access after idle/refresh).
    Empty,
}

/// A single bank of the 3D stack with an open-row tracker.
///
/// # Examples
///
/// ```
/// use pim_mem::bank::Bank;
/// use pim_mem::stack::StackConfig;
/// use pim_common::ids::BankId;
///
/// let cfg = StackConfig::hmc2();
/// let mut bank = Bank::new(BankId::new(0), &cfg);
/// bank.access(0);      // empty -> opens row 0
/// bank.access(64);     // same row -> hit
/// bank.access(1 << 20); // different row -> miss
/// assert!(bank.stats().hit_rate() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct Bank {
    id: BankId,
    row_bytes: usize,
    open_row: Option<u64>,
    stats: BankStats,
    hit_latency: Seconds,
    miss_latency: Seconds,
}

/// Access counters accumulated by a [`Bank`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct BankStats {
    /// Row-buffer hits observed.
    pub hits: u64,
    /// Row-buffer conflicts (precharge + activate) observed.
    pub misses: u64,
    /// Accesses that found the bank idle.
    pub empties: u64,
    /// Total time spent serving accesses.
    pub busy_time: Seconds,
}

impl BankStats {
    /// Total accesses observed.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses + self.empties
    }

    /// Fraction of accesses that hit the open row (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.accesses();
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl Bank {
    /// Creates an idle bank using the stack's row-buffer size and latencies.
    pub fn new(id: BankId, config: &StackConfig) -> Self {
        Bank {
            id,
            row_bytes: config.row_buffer_bytes(),
            open_row: None,
            stats: BankStats::default(),
            hit_latency: config.row_hit_latency(),
            miss_latency: config.row_miss_latency(),
        }
    }

    /// The identifier of this bank.
    pub fn id(&self) -> BankId {
        self.id
    }

    /// Serves one access to `byte_address` and returns its outcome.
    pub fn access(&mut self, byte_address: u64) -> RowOutcome {
        let row = byte_address / self.row_bytes as u64;
        let outcome = match self.open_row {
            Some(open) if open == row => RowOutcome::Hit,
            Some(_) => RowOutcome::Miss,
            None => RowOutcome::Empty,
        };
        self.open_row = Some(row);
        match outcome {
            RowOutcome::Hit => {
                self.stats.hits += 1;
                self.stats.busy_time += self.hit_latency;
            }
            RowOutcome::Miss => {
                self.stats.misses += 1;
                self.stats.busy_time += self.miss_latency;
            }
            RowOutcome::Empty => {
                self.stats.empties += 1;
                // An empty bank still pays activate + CAS but no precharge;
                // approximate with the miss latency minus one hit latency.
                self.stats.busy_time += self.miss_latency - self.hit_latency;
            }
        }
        outcome
    }

    /// Closes the open row (refresh or power-down boundary).
    pub fn precharge(&mut self) {
        self.open_row = None;
    }

    /// Accumulated access counters.
    pub fn stats(&self) -> &BankStats {
        &self.stats
    }
}

/// Runs a synthetic access stream through a bank and reports the hit rate.
///
/// Used by tests and by the buffering-mechanism validation: a sequential
/// sweep should enjoy a high hit rate, while random addressing should not.
pub fn hit_rate_for_stream(bank: &mut Bank, addresses: impl IntoIterator<Item = u64>) -> f64 {
    for addr in addresses {
        bank.access(addr);
    }
    bank.stats().hit_rate()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_common::rng::check;

    fn bank() -> Bank {
        Bank::new(BankId::new(0), &StackConfig::hmc2())
    }

    #[test]
    fn sequential_sweep_mostly_hits() {
        let mut b = bank();
        let rate = hit_rate_for_stream(&mut b, (0..4096u64).map(|i| i * 4));
        assert!(rate > 0.9, "sequential hit rate was {rate}");
    }

    #[test]
    fn row_strided_stream_always_misses() {
        let mut b = bank();
        let row = StackConfig::hmc2().row_buffer_bytes() as u64;
        // Alternate between two rows: every access conflicts.
        let addrs = (0..100u64).map(|i| (i % 2) * 4 * row);
        let rate = hit_rate_for_stream(&mut b, addrs);
        assert_eq!(rate, 0.0);
    }

    #[test]
    fn first_access_is_empty() {
        let mut b = bank();
        assert_eq!(b.access(0), RowOutcome::Empty);
        assert_eq!(b.access(0), RowOutcome::Hit);
        b.precharge();
        assert_eq!(b.access(0), RowOutcome::Empty);
    }

    #[test]
    fn busy_time_accumulates() {
        let mut b = bank();
        b.access(0);
        let t1 = b.stats().busy_time;
        b.access(0);
        assert!(b.stats().busy_time > t1);
    }

    #[test]
    fn stats_accesses_equal_stream_length() {
        check(64, "stats_accesses_equal_stream_length", |g| {
            let addrs = g.vec(1..200, |g| g.draw(0u64..1_000_000));
            let mut b = bank();
            let n = addrs.len() as u64;
            for a in addrs {
                b.access(a);
            }
            assert_eq!(b.stats().accesses(), n);
        });
    }

    #[test]
    fn hit_rate_is_a_fraction() {
        check(64, "hit_rate_is_a_fraction", |g| {
            let addrs = g.vec(0..200, |g| g.draw(0u64..1_000_000));
            let mut b = bank();
            let rate = hit_rate_for_stream(&mut b, addrs);
            assert!((0.0..=1.0).contains(&rate));
        });
    }
}
