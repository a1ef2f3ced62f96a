//! Execution reports: the observables every figure of the evaluation reads.

use pim_common::trace::Counters;
use pim_common::units::{edp, Joules, Seconds, Watts};
use pim_common::Diagnostics;
use serde::Serialize;
use std::collections::BTreeMap;

/// Baseline full-system power outside the compute devices (uncore, VRM,
/// fans, DRAM refresh) charged over the whole makespan of every
/// configuration — the paper evaluates full-system power (§V-B).
pub const BASE_SYSTEM_POWER: Watts = Watts::new(30.0);

/// Idle power of the host package while an accelerator executes (uncore +
/// cores in shallow sleep, still running the framework runtime). Charged by
/// every configuration that keeps the host out of the compute path —
/// CPU-only runs bill the CPU per op instead.
pub const HOST_IDLE_POWER: Watts = Watts::new(40.0);

/// Normalizes raw breakdown sums so `op + dm + sync == makespan` exactly.
///
/// Raw per-op part sums generally overcount the makespan whenever execution
/// overlaps ops; rescaling preserves their ratios while making the
/// breakdown partition the measured wall-clock.
pub fn normalized_parts(
    makespan: Seconds,
    op_raw: Seconds,
    dm_raw: Seconds,
    sync_raw: Seconds,
) -> (Seconds, Seconds, Seconds) {
    let total = (op_raw + dm_raw + sync_raw).seconds();
    if total <= 0.0 {
        return (makespan, Seconds::ZERO, Seconds::ZERO);
    }
    let scale = makespan.seconds() / total;
    let op = op_raw * scale;
    let dm = dm_raw * scale;
    (op, dm, makespan - op - dm)
}

/// The single constructor of [`ExecutionReport`].
///
/// Every simulation path — the engine's event core and the analytic
/// GPU/Neurocube baselines — builds its report here, so the full-system
/// energy accounting ([`BASE_SYSTEM_POWER`], [`HOST_IDLE_POWER`]) and the
/// breakdown normalization are applied uniformly and exactly once.
#[derive(Debug, Clone)]
pub struct ReportBuilder {
    system: String,
    steps: usize,
    makespan: Seconds,
    op_raw: Seconds,
    dm_raw: Seconds,
    sync_raw: Seconds,
    energy: Joules,
    charge_host_idle: bool,
    ff_utilization: f64,
    device_busy: BTreeMap<String, Seconds>,
}

impl ReportBuilder {
    /// Starts a report for one system configuration.
    pub fn new(system: impl Into<String>, steps: usize) -> Self {
        ReportBuilder {
            system: system.into(),
            steps,
            makespan: Seconds::ZERO,
            op_raw: Seconds::ZERO,
            dm_raw: Seconds::ZERO,
            sync_raw: Seconds::ZERO,
            energy: Joules::ZERO,
            charge_host_idle: false,
            ff_utilization: 0.0,
            device_busy: BTreeMap::new(),
        }
    }

    /// End-to-end simulated time.
    pub fn makespan(mut self, makespan: Seconds) -> Self {
        self.makespan = makespan;
        self
    }

    /// Raw (pre-normalization) breakdown sums; [`Self::build`] rescales
    /// them so they partition the makespan exactly.
    pub fn raw_parts(mut self, op: Seconds, dm: Seconds, sync: Seconds) -> Self {
        self.op_raw = op;
        self.dm_raw = dm;
        self.sync_raw = sync;
        self
    }

    /// Dynamic energy of the compute devices and memory paths alone; base
    /// system power and host idle power are added by [`Self::build`].
    pub fn device_energy(mut self, energy: Joules) -> Self {
        self.energy = energy;
        self
    }

    /// Charges [`HOST_IDLE_POWER`] over the makespan (configurations whose
    /// host package idles while an accelerator computes).
    pub fn charge_host_idle(mut self) -> Self {
        self.charge_host_idle = true;
        self
    }

    /// Average fixed-function pool utilization over the makespan.
    pub fn ff_utilization(mut self, utilization: f64) -> Self {
        self.ff_utilization = utilization;
        self
    }

    /// Records one device's busy time.
    pub fn device_busy(mut self, name: impl Into<String>, busy: Seconds) -> Self {
        self.device_busy.insert(name.into(), busy);
        self
    }

    /// Finalizes the report: normalizes the breakdown and applies the
    /// full-system energy accounting.
    pub fn build(self) -> ExecutionReport {
        let (op, dm, sync) =
            normalized_parts(self.makespan, self.op_raw, self.dm_raw, self.sync_raw);
        let host_idle = if self.charge_host_idle {
            HOST_IDLE_POWER * self.makespan
        } else {
            Joules::ZERO
        };
        ExecutionReport {
            system: self.system,
            steps: self.steps,
            makespan: self.makespan,
            op_time: op,
            data_movement_time: dm,
            sync_time: sync,
            dynamic_energy: self.energy + BASE_SYSTEM_POWER * self.makespan + host_idle,
            ff_utilization: self.ff_utilization,
            device_busy: self.device_busy,
        }
    }
}

/// Result of simulating a training run on one system configuration.
///
/// `PartialEq` compares every field exactly (no tolerance): the
/// differential suite asserts that optimized and reference execution paths
/// agree bit-for-bit, not approximately.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ExecutionReport {
    /// Configuration name ("CPU", "GPU", "Progr PIM", "Fixed PIM",
    /// "Hetero PIM", ...).
    pub system: String,
    /// Training steps simulated.
    pub steps: usize,
    /// End-to-end simulated time.
    pub makespan: Seconds,
    /// Breakdown: pure computation share of the makespan.
    pub op_time: Seconds,
    /// Breakdown: data-movement-bound share of the makespan.
    pub data_movement_time: Seconds,
    /// Breakdown: synchronization/dispatch share of the makespan.
    pub sync_time: Seconds,
    /// Dynamic energy including the base system power.
    pub dynamic_energy: Joules,
    /// Average utilization of the fixed-function pool over the makespan
    /// (0 when the configuration has none).
    pub ff_utilization: f64,
    /// Busy time per device.
    pub device_busy: BTreeMap<String, Seconds>,
}

impl ExecutionReport {
    /// Average time per training step.
    pub fn per_step_time(&self) -> Seconds {
        if self.steps == 0 {
            Seconds::ZERO
        } else {
            self.makespan / self.steps as f64
        }
    }

    /// Average full-system power over the run.
    pub fn average_power(&self) -> Watts {
        if self.makespan.seconds() > 0.0 {
            self.dynamic_energy / self.makespan
        } else {
            Watts::ZERO
        }
    }

    /// Energy-delay product (§VI-G's efficiency metric), per step.
    pub fn edp_per_step(&self) -> f64 {
        if self.steps == 0 {
            return 0.0;
        }
        edp(
            self.dynamic_energy / self.steps as f64,
            self.per_step_time(),
        )
    }

    /// Breakdown fractions `(op, data movement, sync)` summing to 1.
    pub fn breakdown_fractions(&self) -> (f64, f64, f64) {
        let total = self.op_time + self.data_movement_time + self.sync_time;
        if total.seconds() == 0.0 {
            return (1.0, 0.0, 0.0);
        }
        (
            self.op_time / total,
            self.data_movement_time / total,
            self.sync_time / total,
        )
    }

    /// True when every invariant a report must satisfy holds (used by
    /// property tests): non-negative quantities, utilization in `[0, 1]`,
    /// breakdown parts summing to the makespan within tolerance.
    pub fn is_well_formed(&self) -> bool {
        let parts = self.op_time + self.data_movement_time + self.sync_time;
        self.makespan.is_valid()
            && self.dynamic_energy.is_valid()
            && self.op_time.is_valid()
            && self.data_movement_time.is_valid()
            && self.sync_time.is_valid()
            && (0.0..=1.0 + 1e-9).contains(&self.ff_utilization)
            && (parts.seconds() - self.makespan.seconds()).abs()
                <= 1e-6 * self.makespan.seconds().max(1e-12)
    }
}

/// Relative tolerance for counter/report agreement: both sides accumulate
/// the same femtosecond-quantized durations, so only summation-order
/// rounding separates them.
pub const CROSS_CHECK_REL_TOL: f64 = 1e-6;

fn rel_close(a: f64, b: f64) -> bool {
    (a - b).abs() <= CROSS_CHECK_REL_TOL * a.abs().max(b.abs()).max(1e-12)
}

/// Cross-checks a run's independently-accumulated [`Counters`] registry
/// against its [`ExecutionReport`] — the observability layer and the
/// statistics pipeline must tell the same story.
///
/// Checks, each reported as a `counters`-pass diagnostic on failure:
///
/// * `busy_seconds/<device>` matches `report.device_busy` per device at
///   [`CROSS_CHECK_REL_TOL`] relative tolerance,
/// * every event dispatched was completed or recovered from
///   (`events/dispatched` == `events/completed` + `faults/retries` +
///   `faults/redispatches`; the fault counters read zero when absent),
/// * per-class `ops/*` placements sum to `events/dispatched`.
///
/// # Examples
///
/// ```
/// use pim_runtime::stats::{cross_check_counters, ReportBuilder};
/// use pim_common::trace::Counters;
/// use pim_common::units::Seconds;
///
/// let report = ReportBuilder::new("CPU", 1)
///     .makespan(Seconds::new(2.0))
///     .raw_parts(Seconds::new(2.0), Seconds::ZERO, Seconds::ZERO)
///     .device_busy("CPU", Seconds::new(2.0))
///     .build();
/// let mut counters = Counters::new();
/// counters.add("busy_seconds/CPU", 2.0);
/// assert!(cross_check_counters(&report, &counters).is_clean());
///
/// counters.add("busy_seconds/CPU", 1.0);
/// assert!(!cross_check_counters(&report, &counters).is_clean());
/// ```
pub fn cross_check_counters(report: &ExecutionReport, counters: &Counters) -> Diagnostics {
    let mut diags = Diagnostics::new();
    for (device, busy) in &report.device_busy {
        let counted = counters.get(&format!("busy_seconds/{device}"));
        if !rel_close(counted, busy.seconds()) {
            diags.error(
                "counters",
                format!("busy_seconds/{device}"),
                format!(
                    "counter says {counted} busy seconds, report says {}",
                    busy.seconds()
                ),
            );
        }
    }
    let dispatched = counters.get("events/dispatched");
    let completed = counters.get("events/completed");
    // Every dispatched attempt either completes or is recovered from:
    // retried (transients + strike kills) or re-dispatched (timeouts). In
    // fault-free runs the fault counters are absent and this reduces to
    // dispatched == completed.
    let recovered = counters.get("faults/retries") + counters.get("faults/redispatches");
    if dispatched != completed + recovered {
        diags.error(
            "counters",
            "events/completed",
            format!(
                "{dispatched} events dispatched but {completed} completed and {recovered} \
                 recovered"
            ),
        );
    }
    let placed: f64 = counters
        .iter()
        .filter(|(name, _)| name.starts_with("ops/"))
        .map(|(_, value)| value)
        .sum();
    if placed != dispatched {
        diags.error(
            "counters",
            "ops/*",
            format!("{placed} ops placed across classes but {dispatched} dispatched"),
        );
    }
    diags
}

/// [`cross_check_counters`] for a partitioned run: validates the merged
/// counter registry of a [`crate::engine::Partitioning::Partitioned`] run
/// against
/// the *sum* of the per-partition reports.
///
/// Partition merge is plain addition for every counter the cross-check
/// reads (busy seconds, event and op tallies), so the merged registry
/// must agree with a synthetic report whose busy map and event totals
/// are the element-wise sums over partitions — any partition whose
/// counters were dropped or double-merged surfaces here.
pub fn cross_check_many(reports: &[ExecutionReport], counters: &Counters) -> Diagnostics {
    let mut busy: BTreeMap<String, Seconds> = BTreeMap::new();
    for report in reports {
        for (device, seconds) in &report.device_busy {
            *busy.entry(device.clone()).or_insert(Seconds::ZERO) += *seconds;
        }
    }
    let mut diags = Diagnostics::new();
    for (device, total) in &busy {
        let counted = counters.get(&format!("busy_seconds/{device}"));
        if !rel_close(counted, total.seconds()) {
            diags.error(
                "counters",
                format!("busy_seconds/{device}"),
                format!(
                    "merged counter says {counted} busy seconds, summed reports say {}",
                    total.seconds()
                ),
            );
        }
    }
    let dispatched = counters.get("events/dispatched");
    let completed = counters.get("events/completed");
    let recovered = counters.get("faults/retries") + counters.get("faults/redispatches");
    if dispatched != completed + recovered {
        diags.error(
            "counters",
            "events/completed",
            format!(
                "{dispatched} events dispatched but {completed} completed and {recovered} \
                 recovered"
            ),
        );
    }
    let placed: f64 = counters
        .iter()
        .filter(|(name, _)| name.starts_with("ops/"))
        .map(|(_, value)| value)
        .sum();
    if placed != dispatched {
        diags.error(
            "counters",
            "ops/*",
            format!("{placed} ops placed across classes but {dispatched} dispatched"),
        );
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> ExecutionReport {
        ExecutionReport {
            system: "test".into(),
            steps: 4,
            makespan: Seconds::new(8.0),
            op_time: Seconds::new(5.0),
            data_movement_time: Seconds::new(2.0),
            sync_time: Seconds::new(1.0),
            dynamic_energy: Joules::new(400.0),
            ff_utilization: 0.75,
            device_busy: BTreeMap::new(),
        }
    }

    #[test]
    fn cross_check_many_sums_partition_reports() {
        let mut a = report();
        a.device_busy.insert("CPU".into(), Seconds::new(3.0));
        let mut b = report();
        b.device_busy.insert("CPU".into(), Seconds::new(5.0));
        let mut counters = Counters::new();
        counters.add("busy_seconds/CPU", 8.0);
        counters.add("events/dispatched", 6.0);
        counters.add("events/completed", 6.0);
        counters.add("ops/cpu", 6.0);
        assert!(cross_check_many(&[a.clone(), b.clone()], &counters).is_clean());

        // Dropping a partition's busy time from the merge must surface.
        let mut short = Counters::new();
        short.add("busy_seconds/CPU", 3.0);
        short.add("events/dispatched", 6.0);
        short.add("events/completed", 6.0);
        short.add("ops/cpu", 6.0);
        assert!(!cross_check_many(&[a, b], &short).is_clean());
    }

    #[test]
    fn derived_metrics_are_consistent() {
        let r = report();
        assert_eq!(r.per_step_time(), Seconds::new(2.0));
        assert_eq!(r.average_power(), Watts::new(50.0));
        assert_eq!(r.edp_per_step(), 100.0 * 2.0);
        assert!(r.is_well_formed());
    }

    #[test]
    fn breakdown_fractions_sum_to_one() {
        let (a, b, c) = report().breakdown_fractions();
        assert!((a + b + c - 1.0).abs() < 1e-12);
        assert!((a - 0.625).abs() < 1e-12);
    }

    #[test]
    fn ill_formed_reports_are_caught() {
        let mut r = report();
        r.op_time = Seconds::new(100.0);
        assert!(!r.is_well_formed());
    }

    #[test]
    fn normalized_parts_partition_the_makespan_exactly() {
        let (op, dm, sync) = normalized_parts(
            Seconds::new(10.0),
            Seconds::new(6.0),
            Seconds::new(3.0),
            Seconds::new(3.0),
        );
        assert_eq!((op + dm + sync).seconds(), 10.0);
        assert!((op.seconds() - 5.0).abs() < 1e-12);
        // Degenerate raw sums collapse to pure op time.
        let (op, dm, sync) = normalized_parts(
            Seconds::new(2.0),
            Seconds::ZERO,
            Seconds::ZERO,
            Seconds::ZERO,
        );
        assert_eq!(op, Seconds::new(2.0));
        assert_eq!(dm + sync, Seconds::ZERO);
    }

    #[test]
    fn builder_applies_full_system_energy_accounting() {
        let r = ReportBuilder::new("test", 2)
            .makespan(Seconds::new(4.0))
            .raw_parts(Seconds::new(2.0), Seconds::new(1.0), Seconds::new(1.0))
            .device_energy(Joules::new(100.0))
            .charge_host_idle()
            .ff_utilization(0.5)
            .device_busy("Dev", Seconds::new(4.0))
            .build();
        assert!(r.is_well_formed());
        // 100 J device + (30 W + 40 W) * 4 s full-system overhead.
        assert_eq!(r.dynamic_energy, Joules::new(100.0 + 70.0 * 4.0));
        assert_eq!(r.device_busy["Dev"], Seconds::new(4.0));
        let without_idle = ReportBuilder::new("test", 2)
            .makespan(Seconds::new(4.0))
            .device_energy(Joules::new(100.0))
            .build();
        assert_eq!(without_idle.dynamic_energy, Joules::new(100.0 + 30.0 * 4.0));
    }
}
