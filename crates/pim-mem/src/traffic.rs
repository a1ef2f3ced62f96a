//! Transfer-time math shared by all memory models, plus the traffic
//! accounting the runtime's observability layer reads.

pub use pim_common::access::AccessPattern;
use pim_common::trace::Counters;
use pim_common::units::{Bytes, Seconds};

/// Fraction of peak bandwidth a pattern achieves on a row-buffer DRAM.
///
/// The constants follow the usual DRAM rule of thumb: streaming reaches ~90%
/// of peak, strided roughly half, random a small fraction dominated by
/// row-activate latency.
///
/// # Examples
///
/// ```
/// use pim_mem::traffic::{bandwidth_efficiency, AccessPattern};
/// assert!(bandwidth_efficiency(AccessPattern::Sequential)
///     > bandwidth_efficiency(AccessPattern::Random));
/// ```
pub fn bandwidth_efficiency(pattern: AccessPattern) -> f64 {
    match pattern {
        AccessPattern::Sequential => 0.90,
        AccessPattern::Strided => 0.50,
        AccessPattern::Random => 0.12,
    }
}

/// Time to move `volume` over a channel with `peak` bytes/second, derated by
/// the pattern's efficiency.
///
/// # Examples
///
/// ```
/// use pim_mem::traffic::{transfer_time, AccessPattern};
/// use pim_common::units::Bytes;
///
/// let t = transfer_time(Bytes::new(9e8), 1e9, AccessPattern::Sequential);
/// assert!((t.seconds() - 1.0).abs() < 1e-9);
/// ```
///
/// # Panics
///
/// Panics in debug builds if `peak_bytes_per_sec` is not positive.
pub fn transfer_time(volume: Bytes, peak_bytes_per_sec: f64, pattern: AccessPattern) -> Seconds {
    debug_assert!(peak_bytes_per_sec > 0.0, "peak bandwidth must be positive");
    let effective = peak_bytes_per_sec * bandwidth_efficiency(pattern);
    Seconds::new(volume.bytes() / effective)
}

/// Accumulated main-memory traffic of one simulation.
///
/// Every executed op contributes its read/write volumes; the totals land
/// in the run's [`Counters`] registry (`bytes/read`, `bytes/written`,
/// `bytes/transfers`) so traces and reports can be cross-checked against
/// what actually moved.
///
/// # Examples
///
/// ```
/// use pim_mem::traffic::TrafficStats;
/// use pim_common::trace::Counters;
/// use pim_common::units::Bytes;
///
/// let mut t = TrafficStats::new();
/// t.record(Bytes::new(256.0), Bytes::new(64.0));
/// t.record(Bytes::new(128.0), Bytes::ZERO);
/// assert_eq!(t.total().bytes(), 448.0);
/// assert_eq!(t.transfers(), 2);
///
/// let mut c = Counters::new();
/// t.apply(&mut c);
/// assert_eq!(c.get("bytes/read"), 384.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrafficStats {
    bytes_read: Bytes,
    bytes_written: Bytes,
    transfers: u64,
}

impl TrafficStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        TrafficStats::default()
    }

    /// Records one op's read and write volumes.
    pub fn record(&mut self, read: Bytes, written: Bytes) {
        self.bytes_read += read;
        self.bytes_written += written;
        self.transfers += 1;
    }

    /// Total bytes read from main memory.
    pub fn bytes_read(&self) -> Bytes {
        self.bytes_read
    }

    /// Total bytes written to main memory.
    pub fn bytes_written(&self) -> Bytes {
        self.bytes_written
    }

    /// Total bytes moved in either direction.
    pub fn total(&self) -> Bytes {
        self.bytes_read + self.bytes_written
    }

    /// Number of recorded transfers (op executions).
    pub fn transfers(&self) -> u64 {
        self.transfers
    }

    /// Writes the totals into a counters registry under `bytes/read`,
    /// `bytes/written`, and `bytes/transfers`.
    pub fn apply(&self, counters: &mut Counters) {
        counters.add("bytes/read", self.bytes_read.bytes());
        counters.add("bytes/written", self.bytes_written.bytes());
        counters.add("bytes/transfers", self.transfers as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_common::rng::check;

    #[test]
    fn traffic_stats_accumulate_and_apply() {
        let mut t = TrafficStats::new();
        assert_eq!(t, TrafficStats::default());
        t.record(Bytes::from_lines(2), Bytes::from_lines(1));
        t.record(Bytes::new(10.0), Bytes::new(20.0));
        assert_eq!(t.bytes_read().bytes(), 138.0);
        assert_eq!(t.bytes_written().bytes(), 84.0);
        assert_eq!(t.transfers(), 2);
        let mut c = Counters::new();
        t.apply(&mut c);
        assert_eq!(c.get("bytes/read"), 138.0);
        assert_eq!(c.get("bytes/written"), 84.0);
        assert_eq!(c.get("bytes/transfers"), 2.0);
    }

    #[test]
    fn sequential_is_fastest() {
        let v = Bytes::new(1e6);
        let seq = transfer_time(v, 1e9, AccessPattern::Sequential);
        let strided = transfer_time(v, 1e9, AccessPattern::Strided);
        let random = transfer_time(v, 1e9, AccessPattern::Random);
        assert!(seq < strided);
        assert!(strided < random);
    }

    #[test]
    fn zero_volume_is_free() {
        let t = transfer_time(Bytes::ZERO, 1e9, AccessPattern::Random);
        assert_eq!(t, Seconds::ZERO);
    }

    #[test]
    fn time_scales_linearly_with_volume() {
        check(64, "time_scales_linearly_with_volume", |g| {
            let bytes = g.draw(1.0f64..1e12);
            let bw = g.draw(1e6f64..1e12);
            let t1 = transfer_time(Bytes::new(bytes), bw, AccessPattern::Sequential);
            let t2 = transfer_time(Bytes::new(2.0 * bytes), bw, AccessPattern::Sequential);
            assert!((t2.seconds() / t1.seconds() - 2.0).abs() < 1e-9);
        });
    }

    #[test]
    fn more_bandwidth_never_slower() {
        check(64, "more_bandwidth_never_slower", |g| {
            let bytes = g.draw(1.0f64..1e12);
            let bw = g.draw(1e6f64..1e12);
            let slow = transfer_time(Bytes::new(bytes), bw, AccessPattern::Sequential);
            let fast = transfer_time(Bytes::new(bytes), bw * 2.0, AccessPattern::Sequential);
            assert!(fast <= slow);
        });
    }
}
