//! The discrete-event core: the clock, one event queue, the device lanes
//! and the resource state.
//!
//! The scheduled driver owns one [`EventQueue`] of [`Event`]s keyed by
//! `(femtoseconds, seq)`. Device-lane completions, retry-backoff expiries
//! and permanent strikes all wait in it; the driver pops the earliest,
//! advances the clock to it and reacts. An [`Event::Op`] carries only a
//! slot of [`DeviceLanes`], the slab the dispatched attempts park in, so
//! retiring one reads its record in place. Every payload is a `u32`, so a
//! queue entry `(u128, u64, Event)` is 32 bytes. The queue holds a handful
//! of pending events at a time, so it is a small vector kept sorted latest
//! first: a push inserts at its place, a pop takes the last entry.
//! The flat [`ResourceSoA`] is the one resource ledger: its counters are
//! the Fig. 7 busy/idle state the placement policy queries. It acquires
//! and releases what a [`PlanKind`] holds, and an [`InFlight`] record
//! keeps the kind, not a copy of its units and slots.
//!
//! # Determinism
//!
//! `seq` is drawn from one counter in program order: strikes before the
//! loop, one per dispatch, one per transient retry. Under
//! [`crate::fuzz::TieBreak::Stable`] the key is the counter itself, so
//! simultaneous events pop in push (FIFO) order; the seeded modes remap it
//! through a bijection. Either way every key is unique, so the queue never
//! tie-breaks on anything machine-dependent and the pop order is a pure
//! function of the dispatch order.
//!
//! # Allocation-free steady state
//!
//! All hot-path stores recycle: the queue keeps its capacity and in-flight
//! records live in a slab with a LIFO free list, so a long run allocates
//! only up to its peak in-flight count and then stops touching the
//! allocator.

use super::placement::{Availability, PlanKind, PlannedOp, Planner};
use super::{Survivors, SystemMode};
use crate::stats::{ExecutionReport, ReportBuilder};
use pim_common::units::{Joules, Seconds};
use pim_common::Result;
use pim_hw::fixed::FixedFunctionPool;

use super::faults::AttemptOutcome;

/// The simulation clock.
///
/// Event-driven execution quantizes completion times to integer
/// femtoseconds so queue ordering, timeline intervals, and resource hold
/// times agree exactly; sequential execution just accumulates.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Clock {
    now: Seconds,
}

impl Clock {
    pub fn new() -> Self {
        Clock { now: Seconds::ZERO }
    }

    // &self (not Copy `self`): the clock is mutable shared state and
    // must never be silently duplicated by a by-value getter.
    #[allow(clippy::trivially_copy_pass_by_ref)]
    pub fn now(&self) -> Seconds {
        self.now
    }

    /// Advances by a duration (sequential drivers).
    pub fn advance(&mut self, d: Seconds) {
        self.now += d;
    }

    /// Jumps to a quantized event time (event-driven driver).
    pub fn jump_to_fs(&mut self, fs: u128) {
        self.now = Self::from_fs(fs);
    }

    // Both conversions take a 64-bit path when the value fits (about five
    // simulated hours), which is every event time a run reaches. It gives
    // the same result as the 128-bit conversion, a software routine on
    // x86-64 that would otherwise run twice per event; the wide path stays
    // out of line so the optimizer cannot fold the two back together.
    pub fn to_fs(t: Seconds) -> u128 {
        let fs = t.seconds() * 1e15;
        if fs < u64::MAX as f64 {
            u128::from(fs as u64)
        } else {
            wide_to_fs(fs)
        }
    }

    pub fn from_fs(fs: u128) -> Seconds {
        let fs = match u64::try_from(fs) {
            Ok(fs) => fs as f64,
            Err(_) => wide_from_fs(fs),
        };
        Seconds::new(fs / 1e15)
    }
}

#[cold]
#[inline(never)]
fn wide_to_fs(fs: f64) -> u128 {
    fs as u128
}

#[cold]
#[inline(never)]
fn wide_from_fs(fs: u128) -> f64 {
    fs as f64
}

/// Pending events, earliest first and FIFO-ordered among simultaneous
/// ones.
///
/// The key is `(time, seq, payload)` and `seq` — allocated by the caller
/// from one counter — is unique, so the payload, stored inline in the
/// entry, never takes part in a comparison.
///
/// The driver keeps only a few events pending (2–5 per pop over the seven
/// paper models), so the queue is a vector sorted latest first rather
/// than a heap: `push` inserts at the boundary found scanning from the
/// earliest end, and `pop` takes the last entry. Keys are unique, so it
/// pops in exactly the order a min-heap would.
#[derive(Debug)]
pub(crate) struct EventQueue<T> {
    queue: Vec<(u128, u64, T)>,
}

impl<T> EventQueue<T> {
    pub fn new() -> Self {
        EventQueue {
            queue: Vec::with_capacity(16),
        }
    }

    /// Schedules `payload` at `at` under sequence number `seq`; returns
    /// the quantized time so callers can mirror it (e.g. in the timeline).
    pub fn push(&mut self, at: Seconds, payload: T, seq: u64) -> u128 {
        let fs = Clock::to_fs(at);
        let slot = self
            .queue
            .iter()
            .rposition(|&(f, s, _)| (f, s) > (fs, seq))
            .map_or(0, |i| i + 1);
        self.queue.insert(slot, (fs, seq, payload));
        fs
    }

    /// Pops the earliest event.
    pub fn pop(&mut self) -> Option<(u128, T)> {
        self.queue.pop().map(|(fs, _, payload)| (fs, payload))
    }
}

/// Concurrent programmable-PIM kernels: the runtime dedicates a core pair
/// to each in-flight kernel.
pub const PROGR_KERNEL_SLOTS: usize = 2;

/// One dispatched attempt occupying resources until its completion event.
/// What it holds is its `kind`'s ([`PlanKind::units`],
/// [`PlanKind::uses_cpu`], [`PlanKind::uses_progr`]).
///
/// Fault-free dispatches simply carry `attempt == 0`,
/// `outcome == Completed`, and stay `live` until retirement.
#[derive(Debug, Clone, Copy)]
pub(crate) struct InFlight {
    pub wl: usize,
    pub step: usize,
    pub op: usize,
    pub kind: PlanKind,
    /// Fate-adjusted planned op (the charge if the attempt runs to its
    /// scheduled end).
    pub charge: PlannedOp,
    pub attempt: u32,
    pub outcome: AttemptOutcome,
    pub start: Seconds,
    pub inflight_at_dispatch: usize,
    pub candidate: bool,
    /// Cleared when the attempt retires, or when a strike kills it before
    /// its event pops.
    pub live: bool,
}

/// One pending event of the scheduled driver's queue. Payloads are `u32`
/// so a queue entry stays 32 bytes.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Event {
    /// The attempt parked in this [`DeviceLanes`] slot reaches its
    /// scheduled end.
    Op(u32),
    /// A retry backoff expires; the instance with this flat index (the
    /// index of the driver's per-instance tables) becomes ready again.
    Retry(u32),
    /// Permanent strike `i` of the fault context lands.
    Strike(u32),
}

const _: () = assert!(std::mem::size_of::<(u128, u64, Event)>() <= 32);
// A plan-table row and an in-flight record carry the kind once: the holds
// are the kind's, not copied beside it.
const _: () = assert!(std::mem::size_of::<(PlanKind, PlannedOp)>() <= 64);
const _: () = assert!(std::mem::size_of::<InFlight>() <= 112);

/// The per-device completion lanes: every dispatched attempt parks here
/// until its [`Event::Op`] pops.
///
/// In-flight records live in a slab with a LIFO free list; a killed slot
/// is recycled only when its stale event pops, so a pending event never
/// aliases a reused slot.
#[derive(Debug)]
pub(crate) struct DeviceLanes {
    slab: Vec<InFlight>,
    free_slots: Vec<u32>,
}

impl DeviceLanes {
    pub fn new() -> Self {
        DeviceLanes {
            slab: Vec::new(),
            free_slots: Vec::new(),
        }
    }

    /// Parks `rec`; returns the slot its event carries.
    pub fn park(&mut self, rec: InFlight) -> u32 {
        match self.free_slots.pop() {
            Some(s) => {
                self.slab[s as usize] = rec;
                s
            }
            None => {
                let slot = u32::try_from(self.slab.len()).expect("in-flight slots fit u32");
                self.slab.push(rec);
                slot
            }
        }
    }

    /// The record parked in `slot`.
    pub fn get(&self, slot: u32) -> &InFlight {
        &self.slab[slot as usize]
    }

    /// Frees `slot` as its event pops and returns the attempt it held, or
    /// `None` when a strike already killed (and accounted) that attempt.
    pub fn retire(&mut self, slot: u32) -> Option<&InFlight> {
        self.free_slots.push(slot);
        let rec = &mut self.slab[slot as usize];
        if !rec.live {
            return None;
        }
        rec.live = false;
        Some(rec)
    }

    /// Marks the attempt in `slot` dead and returns it; its event will
    /// retire as `None`.
    pub fn kill(&mut self, slot: u32) -> &InFlight {
        let rec = &mut self.slab[slot as usize];
        rec.live = false;
        rec
    }

    /// Whether any live in-flight attempt matches `pred`.
    pub fn any_live(&self, pred: impl Fn(&InFlight) -> bool) -> bool {
        self.slab.iter().any(|r| r.live && pred(r))
    }

    /// The slot of the live attempt matching `pred` that dispatched
    /// earliest, tie-broken by `(workload, step, op, slot)` so victim
    /// selection is deterministic.
    pub fn victim(&self, pred: impl Fn(&InFlight) -> bool) -> Option<u32> {
        (0u32..)
            .zip(&self.slab)
            .filter(|(_, r)| r.live && pred(r))
            .min_by_key(|&(j, r)| (Clock::to_fs(r.start), r.wl, r.step, r.op, j))
            .map(|(j, _)| j)
    }
}

/// Exclusive-resource occupancy in flat structure-of-arrays form: one
/// counter per resource class (CPU slots, programmable-PIM kernel slots,
/// fixed-function units via the pool) plus the alive counts. These
/// counters are the Fig. 7 busy/idle state the software scheduler
/// queries, and both engine drivers keep their quarantine state here. It
/// never originates events; it only gates what the dispatch pass may
/// place.
#[derive(Debug)]
pub(crate) struct ResourceSoA {
    /// Free host CPU slots (the host contributes one).
    cpu_slots_free: u32,
    /// Free programmable-PIM kernel slots.
    progr_slots_free: u32,
    pool: FixedFunctionPool,
    /// Units permanently lost to fail-stop faults. Quarantine holds them
    /// through a never-released pool grant, so they never count as free.
    quarantined_ff: usize,
    /// The programmable PIM has not been permanently quarantined.
    progr_alive: bool,
}

impl ResourceSoA {
    pub fn new(planner: &Planner) -> Self {
        ResourceSoA {
            cpu_slots_free: 1,
            progr_slots_free: PROGR_KERNEL_SLOTS as u32,
            pool: FixedFunctionPool::new(planner.pool_cfg().clone()),
            quarantined_ff: 0,
            progr_alive: true,
        }
    }

    /// Free resources right now, as the placement policy sees them (the
    /// answer the Table III query APIs give the software scheduler).
    pub fn availability(&self) -> Availability {
        Availability {
            cpu_free: self.cpu_slots_free > 0,
            progr_free: self.progr_slots_free > 0,
            ff_free: self.pool.free_units(),
            ff_alive: self.alive_ff(),
            progr_alive: self.progr_alive,
        }
    }

    /// Fixed-function units idle right now.
    pub fn free_ff(&self) -> usize {
        self.pool.free_units()
    }

    /// Units still alive (free or busy, but not quarantined).
    pub fn alive_ff(&self) -> usize {
        self.pool.total_units() - self.quarantined_ff
    }

    /// What the quarantines so far leave of the machine.
    pub fn survivors(&self) -> Survivors {
        (self.alive_ff(), self.progr_alive)
    }

    /// Permanently removes `units` idle fixed-function units. The grant is
    /// never released, so they never count as free again.
    ///
    /// # Errors
    ///
    /// Propagates a pool-grant failure (callers kill enough in-flight work
    /// first to make the units idle).
    pub fn quarantine_ff(&mut self, units: usize) -> Result<()> {
        if units == 0 {
            return Ok(());
        }
        self.pool.grant(units)?;
        self.quarantined_ff += units;
        Ok(())
    }

    /// Permanently removes the programmable PIM (callers kill in-flight
    /// kernels first, so every slot is free here).
    pub fn quarantine_progr(&mut self) {
        self.progr_alive = false;
        self.progr_slots_free = 0;
    }

    /// Reserves the resources a placement of `kind` holds.
    ///
    /// # Errors
    ///
    /// Propagates a pool-grant failure (a scheduler bug: [`Planner::choose`]
    /// only proposes grants that fit).
    pub fn acquire(&mut self, kind: PlanKind) -> Result<()> {
        if kind.units() > 0 {
            self.pool.grant(kind.units())?;
        }
        if kind.uses_cpu() {
            self.cpu_slots_free -= 1;
        }
        if kind.uses_progr() {
            self.progr_slots_free -= 1;
        }
        Ok(())
    }

    /// Returns what a placement of `kind` held.
    pub fn release(&mut self, kind: PlanKind) {
        if kind.units() > 0 {
            self.pool.release(kind.units());
        }
        if kind.uses_cpu() {
            self.cpu_slots_free += 1;
        }
        if kind.uses_progr() {
            self.progr_slots_free += 1;
        }
    }
}

/// Deterministic merge of per-partition timelines into one global
/// timeline.
///
/// Each partition ran one workload in isolation (tagged locally as
/// workload 0); entry `parts[p]` is retagged with workload index `p` and
/// the streams are merged by quantized start time, tie-broken by
/// partition index. Per-partition entries arrive in commit order with
/// non-decreasing starts, and the sort is stable, so same-timestamp
/// entries keep their within-partition commit order — the merged timeline
/// is a pure function of the per-partition timelines, independent of how
/// many threads produced them.
pub(crate) fn merge_partition_timelines(
    parts: Vec<Vec<super::observe::TimelineEntry>>,
) -> Vec<super::observe::TimelineEntry> {
    let mut merged: Vec<super::observe::TimelineEntry> =
        Vec::with_capacity(parts.iter().map(Vec::len).sum());
    for (p, part) in parts.into_iter().enumerate() {
        merged.extend(part.into_iter().map(|mut e| {
            e.workload = p;
            e
        }));
    }
    merged.sort_by_key(|e| (Clock::to_fs(e.start), e.workload));
    merged
}

/// Statistic accumulator shared by every execution driver.
#[derive(Debug, Default)]
pub(crate) struct Accumulator {
    op_raw: Seconds,
    dm_raw: Seconds,
    pub sync_raw: Seconds,
    energy: Joules,
    cpu_busy: Seconds,
    progr_busy: Seconds,
    ff_unit_seconds: f64,
}

impl Accumulator {
    /// Charges `planned`, billed to what a placement of `kind` holds.
    pub fn add(&mut self, kind: PlanKind, planned: &PlannedOp) {
        self.op_raw += planned.op_part;
        self.dm_raw += planned.dm_part;
        self.sync_raw += planned.sync_part;
        self.energy += planned.energy;
        if kind.uses_cpu() {
            self.cpu_busy += planned.duration;
        }
        if kind.uses_progr() {
            self.progr_busy += planned.duration;
        }
        self.ff_unit_seconds += kind.units() as f64 * planned.ff_busy.seconds();
    }

    pub fn into_report(
        self,
        planner: &Planner,
        steps: usize,
        makespan: Seconds,
    ) -> ExecutionReport {
        let cfg = &planner.cfg;
        let ff_utilization = if makespan.seconds() > 0.0 && cfg.mode != SystemMode::CpuOnly {
            (self.ff_unit_seconds / (cfg.ff_units as f64 * makespan.seconds())).min(1.0)
        } else {
            0.0
        };
        let mut builder = ReportBuilder::new(cfg.name.clone(), steps)
            .makespan(makespan)
            .raw_parts(self.op_raw, self.dm_raw, self.sync_raw)
            .device_energy(self.energy)
            .ff_utilization(ff_utilization)
            .device_busy("CPU", self.cpu_busy)
            .device_busy("Progr PIM", self.progr_busy)
            .device_busy(
                "Fixed PIM",
                Seconds::new(self.ff_unit_seconds / cfg.ff_units.max(1) as f64),
            );
        // PIM configurations keep the host package powered (it hosts the
        // TensorFlow runtime and the OpenCL host program) even while PIMs
        // compute; CPU-only runs already bill the CPU per op.
        if cfg.mode != SystemMode::CpuOnly {
            builder = builder.charge_host_idle();
        }
        builder.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EngineConfig, SystemPreset};
    use crate::fuzz::TieBreak;
    use pim_common::rng::check;
    use pim_common::units::Bytes;
    use pim_tensor::cost::{CostProfile, OffloadClass};
    use std::collections::BTreeMap;

    #[test]
    fn event_queue_orders_by_time_then_fifo() {
        let mut queue: EventQueue<usize> = EventQueue::new();
        queue.push(Seconds::new(2e-6), 0, 0);
        queue.push(Seconds::new(1e-6), 1, 1);
        queue.push(Seconds::new(1e-6), 2, 2);
        let order: Vec<usize> = std::iter::from_fn(|| queue.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, vec![1, 2, 0]);
    }

    /// The queue pops exactly what a sorted `(fs, seq)` reference pops,
    /// under random push/pop interleavings with many simultaneous events,
    /// pops on an empty queue and pushes after a drain, with `seq` drawn
    /// from `event_key` as the driver draws it. Two pushes in three keep
    /// a backlog of up to a hundred or so entries, far past the handful
    /// the driver holds.
    #[test]
    fn event_queue_pops_like_a_sorted_reference() {
        check(64, "event_queue_pops_like_a_sorted_reference", |g| {
            let mode = g.draw(0u8..3);
            let seed = g.draw(0u64..1000);
            // 0-7 push at one of eight instants, so most pushes tie on time
            // with a pending event; 8-11 pop.
            let script = g.vec(0..400, |g| g.draw(0u8..12));
            let tie = match mode {
                0 => TieBreak::Stable,
                1 => TieBreak::Permuted(seed),
                _ => TieBreak::Priority(seed),
            };
            let mut queue: EventQueue<u32> = EventQueue::new();
            let mut reference = BTreeMap::new();
            let mut pushed = 0u32;
            // The script, a full drain (and one pop more), the script again.
            let drain = std::iter::repeat_n(11, script.len() + 1);
            for step in script
                .iter()
                .copied()
                .chain(drain)
                .chain(script.iter().copied())
            {
                if step < 8 {
                    let seq = tie.event_key(u64::from(pushed));
                    let fs = queue.push(Seconds::new(f64::from(step) * 1e-6), pushed, seq);
                    reference.insert((fs, seq), pushed);
                    pushed += 1;
                } else {
                    let want = reference
                        .pop_first()
                        .map(|((fs, _), payload)| (fs, payload));
                    assert_eq!(queue.pop(), want);
                }
            }
        });
    }

    #[test]
    fn clock_quantization_round_trips() {
        let t = Seconds::new(1.2345e-3);
        let fs = Clock::to_fs(t);
        assert!((Clock::from_fs(fs).seconds() - t.seconds()).abs() < 1e-15);
        let mut clock = Clock::new();
        clock.advance(Seconds::new(1.0));
        clock.jump_to_fs(Clock::to_fs(Seconds::new(2.0)));
        assert_eq!(clock.now(), Seconds::new(2.0));
        // The 64-bit fast paths agree with the plain 128-bit conversions,
        // on both sides of the 2^64 fs boundary.
        for s in [
            0.0, -1.0, 1e-15, 0.3, 1.2345e-3, 18_446.744, 18_446.745, 1e9,
        ] {
            let t = Seconds::new(s);
            assert_eq!(Clock::to_fs(t), (s * 1e15) as u128, "{s}");
        }
        for fs in [
            0,
            1,
            (1 << 53) + 1,
            u128::from(u64::MAX),
            1 << 64,
            (1 << 70) + 1,
        ] {
            assert_eq!(Clock::from_fs(fs), Seconds::new(fs as f64 / 1e15), "{fs}");
        }
    }

    /// `(ff_free, ff_alive, progr_free, progr_alive)` as the placement
    /// policy reads them.
    fn seen(state: &ResourceSoA) -> (usize, usize, bool, bool) {
        let a = state.availability();
        (a.ff_free, a.ff_alive, a.progr_free, a.progr_alive)
    }

    #[test]
    fn resource_soa_availability_tracks_ff_grants_and_quarantine() {
        let planner = Planner::new(EngineConfig::preset(SystemPreset::Hetero));
        let total = planner.pool_cfg().total_units;
        let mut state = ResourceSoA::new(&planner);
        assert!(state.availability().cpu_free);
        assert_eq!(seen(&state), (total, total, true, true));

        let kind = PlanKind::FixedWhole {
            rc_runtime: true,
            units: 128,
        };
        state.acquire(kind).unwrap();
        assert_eq!(seen(&state), (total - 128, total, true, true));

        // Quarantine takes idle units out of both counts; busy ones stay
        // alive and come back free on release.
        state.quarantine_ff(100).unwrap();
        assert_eq!(seen(&state), (total - 228, total - 100, true, true));
        state.quarantine_ff(0).unwrap();
        assert_eq!(seen(&state), (total - 228, total - 100, true, true));
        state.release(kind);
        assert_eq!(seen(&state), (total - 100, total - 100, true, true));
        assert_eq!(state.free_ff(), total - 100);
        assert_eq!(state.alive_ff(), total - 100);

        // Quarantining every remaining unit leaves nothing free or alive.
        state.quarantine_ff(total - 100).unwrap();
        assert_eq!(seen(&state), (0, 0, true, true));
    }

    #[test]
    fn progr_slots_saturate_and_quarantine_clears_progr_free() {
        let planner = Planner::new(EngineConfig::preset(SystemPreset::Hetero));
        let total = planner.pool_cfg().total_units;
        let mut state = ResourceSoA::new(&planner);
        for _ in 0..PROGR_KERNEL_SLOTS {
            assert!(state.availability().progr_free);
            state.acquire(PlanKind::Progr).unwrap();
        }
        assert_eq!(seen(&state), (total, total, false, true));
        state.release(PlanKind::Progr);
        assert_eq!(seen(&state), (total, total, true, true));
        state.release(PlanKind::Progr);

        // Quarantine (with every kernel slot free) clears both bits for
        // good and leaves the fixed-function counts alone.
        state.quarantine_progr();
        assert_eq!(seen(&state), (total, total, false, false));
        assert!(state.availability().cpu_free);
    }

    fn stub_record(start: Seconds) -> InFlight {
        InFlight {
            wl: 0,
            step: 0,
            op: 0,
            kind: PlanKind::Cpu,
            charge: Planner::new(EngineConfig::preset(SystemPreset::CpuOnly)).plan_cost(
                PlanKind::Cpu,
                &CostProfile::compute(
                    1e6,
                    0.0,
                    0.0,
                    Bytes::new(1e3),
                    Bytes::new(1e3),
                    OffloadClass::NonMulAdd,
                    0,
                ),
            ),
            attempt: 0,
            outcome: AttemptOutcome::Completed,
            start,
            inflight_at_dispatch: 1,
            candidate: false,
            live: true,
        }
    }

    /// Drains `events`, retiring op events through `lanes`, as labels.
    fn drain(events: &mut EventQueue<Event>, lanes: &mut DeviceLanes) -> Vec<String> {
        std::iter::from_fn(|| events.pop())
            .map(|(_, event)| match event {
                Event::Op(slot) => match lanes.retire(slot) {
                    Some(_) => "op".to_string(),
                    None => "stale".to_string(),
                },
                Event::Retry(instance) => format!("retry{instance}"),
                Event::Strike(i) => format!("strike{i}"),
            })
            .collect()
    }

    #[test]
    fn event_queue_orders_ops_retries_and_strikes_by_time_then_seq() {
        // Ops, retries and strikes share one queue: interleaved, partly
        // simultaneous events retire in global (time, seq) order, FIFO
        // among simultaneous events whatever their kind.
        let t1 = Seconds::new(1e-6);
        let t2 = Seconds::new(2e-6);
        let push_four = |tie: TieBreak| {
            let mut events = EventQueue::new();
            let mut lanes = DeviceLanes::new();
            let mut keys = Vec::new();
            let four = [(t2, "op"), (t1, "retry7"), (t1, "op"), (t1, "strike3")];
            for (n, (at, label)) in (0u64..).zip(four) {
                let event = match label {
                    "op" => Event::Op(lanes.park(stub_record(Seconds::ZERO))),
                    "retry7" => Event::Retry(7),
                    _ => Event::Strike(3),
                };
                let seq = tie.event_key(n);
                events.push(at, event, seq);
                keys.push((Clock::to_fs(at), seq, label));
            }
            (events, lanes, keys)
        };
        let (mut events, mut lanes, _) = push_four(TieBreak::Stable);
        assert_eq!(
            drain(&mut events, &mut lanes),
            vec!["retry7", "op", "strike3", "op"]
        );
        // Under a seeded tie-break the pops still follow (fs, event_key(n)).
        for tie in [TieBreak::Permuted(5), TieBreak::Priority(9)] {
            let (mut events, mut lanes, mut keys) = push_four(tie);
            keys.sort_unstable();
            let expected: Vec<&str> = keys.iter().map(|&(_, _, label)| label).collect();
            assert_eq!(drain(&mut events, &mut lanes), expected, "{tie:?}");
        }
    }

    #[test]
    fn partition_merge_orders_same_timestamp_entries_stably() {
        use super::super::observe::{ResourceClass, TimelineEntry};
        let entry = |start: f64, op: usize| TimelineEntry {
            workload: 0,
            step: 0,
            op,
            start: Seconds::new(start),
            end: Seconds::new(start + 1e-6),
            resource: ResourceClass::Cpu,
            ff_units: 0,
            attempt: 0,
            outcome: AttemptOutcome::Completed,
        };
        // Both partitions emit an entry at t=1e-6 — the tie must break by
        // partition index, and within a partition commit order must hold.
        let part0 = vec![entry(0.0, 0), entry(1e-6, 1), entry(1e-6, 2)];
        let part1 = vec![entry(1e-6, 0), entry(2e-6, 1)];
        let merged = merge_partition_timelines(vec![part0, part1]);
        let order: Vec<(usize, usize)> = merged.iter().map(|e| (e.workload, e.op)).collect();
        assert_eq!(
            order,
            vec![(0, 0), (0, 1), (0, 2), (1, 0), (1, 1)],
            "same-timestamp entries must order by (partition, commit order)"
        );
        // Retagging: every entry carries its partition index.
        assert!(merged.iter().enumerate().all(|(i, e)| e.workload < 2
            && merged[..i]
                .iter()
                .all(|p| Clock::to_fs(p.start) < Clock::to_fs(e.start)
                    || (Clock::to_fs(p.start) == Clock::to_fs(e.start)
                        && p.workload <= e.workload))));
    }

    #[test]
    fn killed_lane_slots_retire_stale_and_recycle() {
        let mut lanes = DeviceLanes::new();
        let slot = lanes.park(stub_record(Seconds::ZERO));
        assert_eq!(lanes.kill(slot).start, Seconds::ZERO);
        // Killing leaves the slot held until its event pops.
        let other = lanes.park(stub_record(Seconds::new(1e-6)));
        assert_ne!(other, slot);
        assert!(lanes.retire(slot).is_none());
        // The freed slot is recycled by the next park.
        assert_eq!(lanes.park(stub_record(Seconds::new(2e-6))), slot);
        assert_eq!(lanes.get(slot).start, Seconds::new(2e-6));
        assert!(lanes.retire(slot).is_some());
        assert!(lanes.retire(other).is_some());
        assert!(!lanes.any_live(|_| true));
    }
}
