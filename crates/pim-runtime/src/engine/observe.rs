//! Observability: the timeline entry type, the counter registry hot path,
//! and the driver-facing [`Observer`].
//!
//! The observer has no pending events of its own: it takes part in a run
//! purely through the explicit `record_op`/`completed`/`stall`/... calls
//! the drivers make as they advance.

use super::components::{Clock, InFlight};
use super::faults::AttemptOutcome;
use super::placement::{describe, resource_class, Availability, PlanKind, PlannedOp};
use crate::sync::kernel_calls;
use pim_common::trace::{Counters, TraceEvent, Track};
use pim_common::units::Seconds;
use pim_graph::Graph;
use pim_mem::traffic::TrafficStats;
use pim_tensor::cost::CostProfile;
use serde::Serialize;

/// Which exclusive resource class an op instance occupied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum ResourceClass {
    /// The host CPU slot.
    Cpu,
    /// A programmable-PIM kernel slot.
    Progr,
    /// Fixed-function units only.
    Fixed,
    /// CPU + fixed-function units (host-driven split).
    CpuAndFixed,
    /// Programmable PIM + fixed-function units (recursive kernel).
    ProgrAndFixed,
}

/// One scheduled op instance on the execution timeline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct TimelineEntry {
    /// Workload index.
    pub workload: usize,
    /// Training step.
    pub step: usize,
    /// Operation index within the graph.
    pub op: usize,
    /// Start time.
    pub start: Seconds,
    /// Completion time.
    pub end: Seconds,
    /// Resource class occupied.
    pub resource: ResourceClass,
    /// Fixed-function units held for the whole interval (0 for pure
    /// CPU/programmable placements).
    pub ff_units: usize,
    /// Which attempt of the instance this is (0 in fault-free runs).
    pub attempt: u32,
    /// How the attempt ended ([`AttemptOutcome::Completed`] in fault-free
    /// runs).
    pub outcome: AttemptOutcome,
}

// ---------------------------------------------------------------------------
// Observability: track layout, counters, and the driver-facing Observer.
// ---------------------------------------------------------------------------

/// The single trace process every engine run records under.
pub(crate) const TRACE_PID: u32 = 1;

/// Scheduler track: placement/selection instants, stalls, barriers.
pub(crate) const SCHED_TRACK: Track = Track::new(TRACE_PID, 1);

/// Fixed-function occupancy counter track.
pub(crate) const FF_TRACK: Track = Track::new(TRACE_PID, 2);

/// First thread id of each resource class's span lanes; overlapping spans
/// of one class fan out to `base + lane`.
fn class_base_tid(class: ResourceClass) -> u32 {
    match class {
        ResourceClass::Cpu => 1000,
        ResourceClass::Progr => 2000,
        ResourceClass::Fixed => 3000,
        ResourceClass::CpuAndFixed => 4000,
        ResourceClass::ProgrAndFixed => 5000,
    }
}

/// Stable display label of a resource class (also the counter-key suffix
/// under `ops/`).
pub(crate) fn class_label(class: ResourceClass) -> &'static str {
    match class {
        ResourceClass::Cpu => "CPU",
        ResourceClass::Progr => "Progr PIM",
        ResourceClass::Fixed => "Fixed PIM",
        ResourceClass::CpuAndFixed => "CPU+Fixed",
        ResourceClass::ProgrAndFixed => "Progr+Fixed",
    }
}

/// Stable display label of an attempt outcome (trace span/instant args).
fn outcome_label(outcome: AttemptOutcome) -> &'static str {
    match outcome {
        AttemptOutcome::Completed => "completed",
        AttemptOutcome::Transient => "transient",
        AttemptOutcome::TimedOut => "timed-out",
        AttemptOutcome::Killed => "killed",
    }
}

/// Dense index of a resource class (counter slots, lane tables).
fn class_index(class: ResourceClass) -> usize {
    match class {
        ResourceClass::Cpu => 0,
        ResourceClass::Progr => 1,
        ResourceClass::Fixed => 2,
        ResourceClass::CpuAndFixed => 3,
        ResourceClass::ProgrAndFixed => 4,
    }
}

/// Interned `ops/<class>` counter keys — the hot path must not build a
/// fresh `String` per committed op.
const OPS_COUNTER_KEYS: [&str; 5] = [
    "ops/CPU",
    "ops/Progr PIM",
    "ops/Fixed PIM",
    "ops/CPU+Fixed",
    "ops/Progr+Fixed",
];

/// When a committed attempt ended.
#[derive(Debug, Clone, Copy)]
pub(crate) enum OpEnd {
    /// A simulated time.
    At(Seconds),
    /// The quantized femtosecond time its completion event is keyed by,
    /// converted to seconds only when an entry is built.
    Fs(u128),
}

impl OpEnd {
    fn seconds(self) -> Seconds {
        match self {
            OpEnd::At(t) => t,
            OpEnd::Fs(fs) => Clock::from_fs(fs),
        }
    }
}

/// Everything the [`Observer`] needs to know about one committed op: the
/// attempt, when it ended and how. Its [`TimelineEntry`] is built only
/// when the run collects a timeline or traces.
pub(crate) struct OpRecord<'c> {
    pub attempt: &'c InFlight,
    pub end: OpEnd,
    pub outcome: AttemptOutcome,
    pub planned: &'c PlannedOp,
    pub cost: &'c CostProfile,
    /// The op's graph; the op's name is looked up only for a trace span.
    pub graph: &'c Graph,
}

impl OpRecord<'_> {
    /// The attempt's timeline entry.
    fn entry(&self) -> TimelineEntry {
        let rec = self.attempt;
        TimelineEntry {
            workload: rec.wl,
            step: rec.step,
            op: rec.op,
            start: rec.start,
            end: self.end.seconds(),
            resource: resource_class(&rec.charge),
            ff_units: rec.units,
            attempt: rec.attempt,
            outcome: self.outcome,
        }
    }
}

/// Per-class greedy lane assignment for overlapping spans.
///
/// Spans arrive in non-decreasing start order (the drivers only move the
/// clock forward), so first-fit against lane end times is deterministic
/// and optimal enough for a readable timeline.
#[derive(Default)]
struct Lanes {
    /// Quantized end time of the last span per lane, per resource class.
    ends: [Vec<u128>; 5],
}

impl Lanes {
    /// Assigns a lane for `[start, end]`; `true` when the lane is new.
    fn assign(&mut self, class: ResourceClass, start: Seconds, end: Seconds) -> (usize, bool) {
        let ends = &mut self.ends[class_index(class)];
        let start_fs = Clock::to_fs(start);
        let end_fs = Clock::to_fs(end);
        for (lane, lane_end) in ends.iter_mut().enumerate() {
            if *lane_end <= start_fs {
                *lane_end = end_fs;
                return (lane, false);
            }
        }
        ends.push(end_fs);
        (ends.len() - 1, true)
    }
}

/// The drivers' window into the observability layer.
///
/// Always feeds the [`Counters`] registry and the [`TrafficStats`]
/// accumulator, and appends one [`TimelineEntry`] per committed attempt
/// when the run collects a timeline (an untimed run builds no entries);
/// when its
/// [`pim_common::trace::TraceSink`] is enabled it also emits Chrome-trace
/// spans, instants, and counter samples to it. Whether it traces is read
/// once, when the observer is built, so a disabled sink costs one branch
/// on a field per call.
pub(crate) struct Observer<'a> {
    timeline: Option<&'a mut Vec<TimelineEntry>>,
    counters: &'a mut Counters,
    traffic: TrafficStats,
    ff_units_total: usize,
    ff_busy_units: usize,
    hot: HotCounters,
    tracer: &'a mut dyn pim_common::trace::TraceSink,
    /// `tracer.enabled()`, fixed for the sink's lifetime.
    tracing: bool,
    lanes: Lanes,
}

/// Per-event counter updates accumulated in plain fields and flushed to the
/// [`Counters`] registry once in [`Observer::finish`], so the hot path does
/// no string formatting or map lookups. Sums are built by the same sequence
/// of f64 additions the registry would have performed, so the flushed
/// totals are bit-identical; a key is only materialized when it was touched,
/// matching the registry's insert-on-first-use behavior.
#[derive(Default)]
struct HotCounters {
    dispatched: u64,
    completed: u64,
    stalls: u64,
    ops: [u64; 5],
    busy_cpu: f64,
    busy_cpu_touched: bool,
    busy_progr: f64,
    busy_progr_touched: bool,
    busy_ff: f64,
    busy_ff_touched: bool,
    barrier_seconds: f64,
    barrier_touched: bool,
    decision_seconds: f64,
    decision_touched: bool,
    faults_injected: u64,
    retries: u64,
    redispatches: u64,
    quarantined_units: u64,
}

impl HotCounters {
    fn flush(&mut self, counters: &mut Counters) {
        if self.dispatched > 0 {
            counters.add("events/dispatched", self.dispatched as f64);
        }
        if self.completed > 0 {
            counters.add("events/completed", self.completed as f64);
        }
        if self.stalls > 0 {
            counters.add("events/stalls", self.stalls as f64);
        }
        for (i, &n) in self.ops.iter().enumerate() {
            if n > 0 {
                counters.add(OPS_COUNTER_KEYS[i], n as f64);
            }
        }
        if self.busy_cpu_touched {
            counters.add("busy_seconds/CPU", self.busy_cpu);
        }
        if self.busy_progr_touched {
            counters.add("busy_seconds/Progr PIM", self.busy_progr);
        }
        if self.busy_ff_touched {
            counters.add("busy_seconds/Fixed PIM", self.busy_ff);
        }
        if self.barrier_touched {
            counters.add("sync/barrier_seconds", self.barrier_seconds);
        }
        if self.decision_touched {
            counters.add("sync/decision_seconds", self.decision_seconds);
        }
        if self.faults_injected > 0 {
            counters.add("faults/injected", self.faults_injected as f64);
        }
        if self.retries > 0 {
            counters.add("faults/retries", self.retries as f64);
        }
        if self.redispatches > 0 {
            counters.add("faults/redispatches", self.redispatches as f64);
        }
        if self.quarantined_units > 0 {
            counters.add("faults/quarantined_units", self.quarantined_units as f64);
        }
        *self = HotCounters::default();
    }
}

impl<'a> Observer<'a> {
    /// Builds an observer over an optional timeline, a counters
    /// registry, and a span tracer; `system` labels the trace process.
    pub fn new(
        timeline: Option<&'a mut Vec<TimelineEntry>>,
        counters: &'a mut Counters,
        ff_units_total: usize,
        tracer: &'a mut dyn pim_common::trace::TraceSink,
        system: &str,
    ) -> Self {
        let tracing = tracer.enabled();
        if tracing {
            tracer.record(TraceEvent::ProcessName {
                track: Track::new(TRACE_PID, 0),
                name: format!("hetero-pim engine: {system}"),
            });
            tracer.record(TraceEvent::ThreadName {
                track: SCHED_TRACK,
                name: "scheduler".to_string(),
            });
            tracer.record(TraceEvent::ThreadName {
                track: FF_TRACK,
                name: "ff-unit occupancy".to_string(),
            });
        }
        Observer {
            timeline,
            counters,
            traffic: TrafficStats::new(),
            ff_units_total,
            ff_busy_units: 0,
            hot: HotCounters::default(),
            tracer,
            tracing,
            lanes: Lanes::default(),
        }
    }

    /// Records one committed op instance: timeline entry, counters,
    /// traffic, and (when tracing) a span on its resource-class lane.
    #[inline]
    pub fn record_op(&mut self, rec: &OpRecord<'_>) {
        if let Some(timeline) = self.timeline.as_deref_mut() {
            timeline.push(rec.entry());
        }
        self.hot.dispatched += 1;
        let class = resource_class(&rec.attempt.charge);
        self.hot.ops[class_index(class)] += 1;
        let planned = rec.planned;
        if planned.uses_cpu {
            self.hot.busy_cpu += planned.duration.seconds();
            self.hot.busy_cpu_touched = true;
        }
        if planned.uses_progr {
            self.hot.busy_progr += planned.duration.seconds();
            self.hot.busy_progr_touched = true;
        }
        if planned.ff_units > 0 {
            self.hot.busy_ff += planned.ff_units as f64 * planned.ff_busy.seconds()
                / self.ff_units_total.max(1) as f64;
            self.hot.busy_ff_touched = true;
        }
        self.traffic
            .record(rec.cost.bytes_read, rec.cost.bytes_written);
        if self.tracing {
            self.span(rec, class);
        }
    }

    /// Emits a committed op's span on its resource-class lane.
    #[cold]
    #[inline(never)]
    fn span(&mut self, rec: &OpRecord<'_>, class: ResourceClass) {
        let entry = rec.entry();
        let (lane, fresh) = self.lanes.assign(class, entry.start, entry.end);
        let track = Track::new(TRACE_PID, class_base_tid(class) + lane as u32);
        if fresh {
            let label = class_label(class);
            self.tracer.record(TraceEvent::ThreadName {
                track,
                name: if lane == 0 {
                    label.to_string()
                } else {
                    format!("{label} #{}", lane + 1)
                },
            });
        }
        let kind = rec.attempt.kind;
        let mut args: pim_common::trace::Args = vec![
            ("wl", entry.workload.into()),
            ("step", entry.step.into()),
            ("op", entry.op.into()),
            ("placement", describe(kind).into()),
            ("candidate", rec.attempt.candidate.into()),
            ("inflight", rec.attempt.inflight_at_dispatch.into()),
        ];
        if entry.ff_units > 0 {
            args.push(("ff_units", entry.ff_units.into()));
        }
        // Fault-free entries carry no attempt args, keeping zero-fault
        // traces byte-identical to their pre-fault-model goldens.
        if entry.attempt > 0 || entry.outcome != AttemptOutcome::Completed {
            args.push(("attempt", (entry.attempt as usize).into()));
            args.push(("outcome", outcome_label(entry.outcome).into()));
        }
        if matches!(
            kind,
            PlanKind::FixedWhole {
                rc_runtime: true,
                ..
            } | PlanKind::Recursive { .. }
        ) {
            args.push(("rc_calls", kernel_calls(rec.cost.ma_flops()).into()));
        }
        self.tracer.record(TraceEvent::Span {
            track,
            name: rec.graph.ops()[entry.op].kind.tf_name().to_string(),
            cat: "op",
            start: entry.start,
            end: entry.end,
            args,
        });
    }

    /// Records one completion event popped off the queue (or, in the
    /// serialized driver, an op retiring).
    pub fn completed(&mut self) {
        self.hot.completed += 1;
    }

    /// Applies a fixed-function occupancy change and samples the counter
    /// track.
    pub fn ff_delta(&mut self, now: Seconds, grant: isize) {
        self.ff_busy_units = (self.ff_busy_units as isize + grant).max(0) as usize;
        if self.tracing {
            self.tracer.record(TraceEvent::Counter {
                track: FF_TRACK,
                name: "ff units busy",
                ts: now,
                value: self.ff_busy_units as f64,
            });
        }
    }

    /// Records a resource stall: ready ops that could not be placed
    /// because no free resource fit them
    /// (`window_closed` counts ops merely outside the OP pipeline window).
    pub fn stall(
        &mut self,
        now: Seconds,
        waiting: usize,
        window_closed: usize,
        avail: Availability,
    ) {
        self.hot.stalls += 1;
        if self.tracing {
            self.tracer.record(TraceEvent::Instant {
                track: SCHED_TRACK,
                name: "stall".to_string(),
                cat: "sched",
                ts: now,
                args: vec![
                    ("waiting", waiting.into()),
                    ("window_closed", window_closed.into()),
                    ("cpu_free", avail.cpu_free.into()),
                    ("progr_free", avail.progr_free.into()),
                    ("ff_free", avail.ff_free.into()),
                ],
            });
        }
    }

    /// Records one end-of-step barrier at `now`.
    pub fn barrier(&mut self, now: Seconds, amount: Seconds) {
        self.hot.barrier_seconds += amount.seconds();
        self.hot.barrier_touched = true;
        if self.tracing {
            self.tracer.record(TraceEvent::Instant {
                track: SCHED_TRACK,
                name: "step barrier".to_string(),
                cat: "sync",
                ts: now,
                args: vec![("seconds", amount.seconds().into())],
            });
        }
    }

    /// Accounts placement-decision time spent by the CPU-side runtime.
    pub fn decision(&mut self, amount: Seconds) {
        self.hot.decision_seconds += amount.seconds();
        self.hot.decision_touched = true;
    }

    /// Records one injected fault event (transient, timeout, or permanent
    /// strike) as a counter bump plus a scheduler-track trace instant.
    pub fn fault(&mut self, now: Seconds, what: &'static str, wl: usize, step: usize, op: usize) {
        self.hot.faults_injected += 1;
        if self.tracing {
            self.tracer.record(TraceEvent::Instant {
                track: SCHED_TRACK,
                name: what.to_string(),
                cat: "fault",
                ts: now,
                args: vec![("wl", wl.into()), ("step", step.into()), ("op", op.into())],
            });
        }
    }

    /// Records a permanent fault quarantining `units` resource units
    /// (one injected fault event, `units` quarantined units).
    pub fn quarantine(&mut self, now: Seconds, what: &'static str, units: usize) {
        self.hot.faults_injected += 1;
        self.hot.quarantined_units += units as u64;
        if self.tracing {
            self.tracer.record(TraceEvent::Instant {
                track: SCHED_TRACK,
                name: "quarantine".to_string(),
                cat: "fault",
                ts: now,
                args: vec![("what", what.into()), ("units", units.into())],
            });
        }
    }

    /// Records an in-flight op killed by a permanent strike (the strike
    /// itself was already counted by [`Observer::quarantine`]).
    pub fn killed(&mut self, now: Seconds, wl: usize, step: usize, op: usize) {
        if self.tracing {
            self.tracer.record(TraceEvent::Instant {
                track: SCHED_TRACK,
                name: "killed".to_string(),
                cat: "fault",
                ts: now,
                args: vec![("wl", wl.into()), ("step", step.into()), ("op", op.into())],
            });
        }
    }

    /// Counts a retry scheduled after a transient fault or kill.
    pub fn retried(&mut self) {
        self.hot.retries += 1;
    }

    /// Counts a re-dispatch after a link timeout.
    pub fn redispatched(&mut self) {
        self.hot.redispatches += 1;
    }

    /// Flushes deferred accounting (hot counters, traffic totals) into the
    /// counters registry. Must be called once, after the driver returns.
    pub fn finish(&mut self) {
        self.hot.flush(self.counters);
        self.traffic.apply(self.counters);
    }
}
