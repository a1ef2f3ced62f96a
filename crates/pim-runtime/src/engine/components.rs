//! The component-based discrete-event core.
//!
//! Execution state is split into *components* — per-device completion
//! lanes, the link/sync fault-delivery model, the fixed-function/CPU/
//! programmable resource pool, and the observer — each registered in a
//! [`ComponentSlab`] under a small index key ([`CompKey`]). Every
//! component implements [`Component`]: `next_tick()` exposes the earliest
//! pending event as a `(femtoseconds, sequence)` pair and `advance(to)`
//! retires it. The drivers then run one loop: ask the slab for the
//! component holding the globally earliest tick, advance it, and react to
//! the [`Retired`] value.
//!
//! # Determinism
//!
//! The pre-refactor core used a single event heap keyed by
//! `(time, seq, slot)` with a globally unique `seq`, so simultaneous
//! events popped in push (FIFO) order. The slab preserves that order
//! across *multiple* heaps by construction:
//!
//! * sequence numbers are allocated from one shared counter
//!   ([`ComponentSlab::next_seq`]) in the same program order the old code
//!   pushed events, and
//! * [`ComponentSlab::earliest`] picks the component with the minimum
//!   `(fs, seq)` pair, which — because each per-component heap is itself
//!   a min-heap on `(fs, seq, slot)` — is exactly the event the old single
//!   heap would have popped.
//!
//! `seq` is unique, so the k-way merge over components never tie-breaks on
//! anything machine-dependent; the retired-event order is a pure function
//! of the dispatch order.
//!
//! # Allocation-free steady state
//!
//! All hot-path stores recycle: heap payload slots and in-flight records
//! live in slabs with LIFO free lists (the pattern the fault driver
//! introduced, now shared with the zero-fault path through
//! [`DeviceLanes`]), so a long run allocates only up to its peak
//! in-flight count and then stops touching the allocator.

use super::observe::Observer;
use super::placement::{Availability, PlanKind, PlannedOp, Planner};
use super::SystemMode;
use crate::stats::{ExecutionReport, ReportBuilder};
use pim_common::units::{Joules, Seconds};
use pim_common::Result;
use pim_hw::fixed::FixedFunctionPool;
use pim_hw::registers::StatusRegisters;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use super::faults::AttemptOutcome;

/// The simulation clock.
///
/// Event-driven execution quantizes completion times to integer
/// femtoseconds so heap ordering, timeline intervals, and resource hold
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

    pub fn to_fs(t: Seconds) -> u128 {
        (t.seconds() * 1e15) as u128
    }

    pub fn from_fs(fs: u128) -> Seconds {
        Seconds::new(fs as f64 / 1e15)
    }
}

/// Min-heap of completion events, FIFO-ordered among simultaneous ones.
///
/// Payload slots are recycled through a free list, so long runs keep the
/// payload store bounded by the peak number of in-flight events instead of
/// growing by one slot per push. Ordering is untouched: the heap key is
/// `(time, seq, slot)` and `seq` — allocated by the caller from the
/// component slab's shared counter — is unique, so the recycled slot index
/// never participates in a tie-break.
#[derive(Debug)]
pub(crate) struct EventHeap<T> {
    heap: BinaryHeap<Reverse<(u128, u64, usize)>>,
    payloads: Vec<T>,
    free: Vec<usize>,
}

impl<T: Copy> EventHeap<T> {
    pub fn new() -> Self {
        EventHeap {
            heap: BinaryHeap::with_capacity(16),
            payloads: Vec::with_capacity(16),
            free: Vec::with_capacity(16),
        }
    }

    /// Schedules `payload` to complete at `end` under sequence number
    /// `seq`; returns the quantized completion time so callers can mirror
    /// it (e.g. in the timeline).
    pub fn push(&mut self, end: Seconds, payload: T, seq: u64) -> u128 {
        let fs = Clock::to_fs(end);
        let idx = match self.free.pop() {
            Some(slot) => {
                self.payloads[slot] = payload;
                slot
            }
            None => {
                self.payloads.push(payload);
                self.payloads.len() - 1
            }
        };
        self.heap.push(Reverse((fs, seq, idx)));
        fs
    }

    /// The `(time, seq)` key of the earliest pending event.
    pub fn next_tick(&self) -> Option<(u128, u64)> {
        self.heap.peek().map(|Reverse((fs, seq, _))| (*fs, *seq))
    }

    /// Pops the earliest completion.
    pub fn pop(&mut self) -> Option<(u128, T)> {
        self.heap.pop().map(|Reverse((fs, _, idx))| {
            self.free.push(idx);
            (fs, self.payloads[idx])
        })
    }
}

/// Concurrent programmable-PIM kernels: the runtime dedicates a core pair
/// to each in-flight kernel.
pub const PROGR_KERNEL_SLOTS: usize = 2;

/// One dispatched attempt occupying resources until its completion event.
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
    pub units: usize,
    pub attempt: u32,
    pub outcome: AttemptOutcome,
    pub start: Seconds,
    pub inflight_at_dispatch: usize,
    pub candidate: bool,
    /// Cleared when a strike kills the attempt before its event pops.
    pub live: bool,
}

/// What a component hands back when it advances past its earliest event.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Retired {
    /// An in-flight op attempt reached its scheduled end.
    Op(InFlight),
    /// A retry backoff expired; the instance becomes ready again.
    Retry { wl: usize, step: usize, op: usize },
    /// Permanent strike `i` of the fault context lands.
    Strike(usize),
    /// The event belonged to an attempt a strike already killed and
    /// accounted; only its slot is reclaimed.
    Stale,
    /// The component had nothing pending (passive components only).
    Idle,
}

/// The per-device completion lanes: every dispatched attempt parks here
/// until its completion event fires.
///
/// In-flight records live in a slab with a LIFO free list; a killed slot
/// is recycled only when its stale event drains, so a pending event never
/// aliases a reused slot.
#[derive(Debug)]
pub(crate) struct DeviceLanes {
    events: EventHeap<usize>,
    slab: Vec<InFlight>,
    free_slots: Vec<usize>,
}

impl DeviceLanes {
    pub fn new() -> Self {
        DeviceLanes {
            events: EventHeap::new(),
            slab: Vec::new(),
            free_slots: Vec::new(),
        }
    }

    /// Parks `rec` until `end`; returns the quantized completion time.
    pub fn dispatch(&mut self, end: Seconds, rec: InFlight, seq: u64) -> u128 {
        let slot = match self.free_slots.pop() {
            Some(s) => {
                self.slab[s] = rec;
                s
            }
            None => {
                self.slab.push(rec);
                self.slab.len() - 1
            }
        };
        self.events.push(end, slot, seq)
    }

    /// The record parked in `slot`.
    pub fn record(&self, slot: usize) -> InFlight {
        self.slab[slot]
    }

    /// Marks the attempt in `slot` dead; its event will drain as
    /// [`Retired::Stale`].
    pub fn kill(&mut self, slot: usize) {
        self.slab[slot].live = false;
    }

    /// Whether any live in-flight attempt matches `pred`.
    pub fn any_live(&self, pred: impl Fn(&InFlight) -> bool) -> bool {
        self.slab.iter().any(|r| r.live && pred(r))
    }

    /// The slot of the live attempt matching `pred` that dispatched
    /// earliest, tie-broken by `(workload, step, op, slot)` so victim
    /// selection is deterministic.
    pub fn victim(&self, pred: impl Fn(&InFlight) -> bool) -> Option<usize> {
        self.slab
            .iter()
            .enumerate()
            .filter(|(_, r)| r.live && pred(r))
            .min_by_key(|&(j, r)| (Clock::to_fs(r.start), r.wl, r.step, r.op, j))
            .map(|(j, _)| j)
    }
}

impl Component for DeviceLanes {
    fn next_tick(&self) -> Option<(u128, u64)> {
        self.events.next_tick()
    }

    fn advance(&mut self, _to: (u128, u64)) -> Retired {
        let Some((_fs, slot)) = self.events.pop() else {
            return Retired::Idle;
        };
        let rec = self.slab[slot];
        self.free_slots.push(slot);
        if !rec.live {
            return Retired::Stale;
        }
        self.slab[slot].live = false;
        Retired::Op(rec)
    }
}

/// Events the link/sync model delivers.
#[derive(Debug, Clone, Copy)]
enum SyncEv {
    /// A retry's backoff expires; the instance becomes ready again.
    Retry { wl: usize, step: usize, op: usize },
    /// Permanent strike `i` of the fault context lands.
    Strike(usize),
}

/// The link/sync model: delivers retry-backoff expiries and permanent
/// strikes into the event core. Zero-fault runs register one but never
/// schedule on it, so it contributes no ticks.
#[derive(Debug)]
pub(crate) struct SyncLink {
    events: EventHeap<SyncEv>,
}

impl SyncLink {
    pub fn new() -> Self {
        SyncLink {
            events: EventHeap::new(),
        }
    }

    /// Schedules the end of a retry backoff for `(wl, step, op)`.
    pub fn schedule_retry(&mut self, at: Seconds, wl: usize, step: usize, op: usize, seq: u64) {
        self.events.push(at, SyncEv::Retry { wl, step, op }, seq);
    }

    /// Schedules permanent strike `index` of the fault context.
    pub fn schedule_strike(&mut self, at: Seconds, index: usize, seq: u64) {
        self.events.push(at, SyncEv::Strike(index), seq);
    }
}

impl Component for SyncLink {
    fn next_tick(&self) -> Option<(u128, u64)> {
        self.events.next_tick()
    }

    fn advance(&mut self, _to: (u128, u64)) -> Retired {
        match self.events.pop() {
            Some((_, SyncEv::Retry { wl, step, op })) => Retired::Retry { wl, step, op },
            Some((_, SyncEv::Strike(i))) => Retired::Strike(i),
            None => Retired::Idle,
        }
    }
}

/// Exclusive-resource occupancy in flat structure-of-arrays form: one
/// counter per resource class (CPU slots, programmable-PIM kernel slots,
/// fixed-function units via the pool), mirrored into the Fig. 7 busy/idle
/// register file the software scheduler queries.
///
/// A passive [`Component`]: it never originates events, it just gates what
/// the dispatch pass may place.
#[derive(Debug)]
pub(crate) struct ResourceSoA {
    /// Free host CPU slots (the host contributes one).
    cpu_slots_free: u32,
    /// Free programmable-PIM kernel slots.
    progr_slots_free: u32,
    pool: FixedFunctionPool,
    registers: StatusRegisters,
    /// Busy-unit count currently reflected in the bank registers, so each
    /// mirror only rewrites the registers that changed since the last
    /// acquire/release.
    mirrored_busy: usize,
    /// Units permanently lost to fail-stop faults. Quarantine holds them
    /// through a never-released pool grant, so the Fig. 7 registers show
    /// them busy without any special-casing.
    quarantined_ff: usize,
    /// The programmable PIM has not been permanently quarantined.
    progr_alive: bool,
}

impl ResourceSoA {
    pub fn new(planner: &Planner) -> Self {
        let pool = FixedFunctionPool::new(planner.pool_cfg().clone());
        let registers = StatusRegisters::new(pool.total_units());
        ResourceSoA {
            cpu_slots_free: 1,
            progr_slots_free: PROGR_KERNEL_SLOTS as u32,
            pool,
            registers,
            mirrored_busy: 0,
            quarantined_ff: 0,
            progr_alive: true,
        }
    }

    /// Free resources right now, as the placement policy sees them — read
    /// from the Fig. 7 register file, exactly like the software scheduler
    /// does through the Table III query APIs.
    pub fn availability(&self) -> Availability {
        Availability {
            cpu_free: self.cpu_slots_free > 0,
            progr_free: !self.registers.progr_busy(),
            ff_free: self.registers.idle_bank_count(),
            ff_alive: self.pool.total_units() - self.quarantined_ff,
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

    /// Permanently removes `units` idle fixed-function units. The grant is
    /// never released, so the Fig. 7 registers report them busy forever.
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
        self.mirror_registers();
        Ok(())
    }

    /// Permanently removes the programmable PIM (callers kill in-flight
    /// kernels first, so every slot is free here).
    pub fn quarantine_progr(&mut self) {
        self.progr_alive = false;
        self.progr_slots_free = 0;
        self.mirror_registers();
    }

    /// Reserves the resources a chosen placement needs; returns the
    /// fixed-function units held (0 for CPU/programmable placements).
    ///
    /// # Errors
    ///
    /// Propagates a pool-grant failure (a scheduler bug: [`Planner::choose`]
    /// only proposes grants that fit).
    pub fn acquire(&mut self, kind: PlanKind, planned: &PlannedOp) -> Result<usize> {
        let units = match kind {
            PlanKind::FixedWhole { units, .. }
            | PlanKind::HostSplit { units }
            | PlanKind::Recursive { units } => {
                self.pool.grant(units)?;
                units
            }
            _ => 0,
        };
        if planned.uses_cpu {
            self.cpu_slots_free -= 1;
        }
        if planned.uses_progr {
            self.progr_slots_free -= 1;
        }
        self.mirror_registers();
        Ok(units)
    }

    /// Returns a completed op's resources.
    pub fn release(&mut self, units: usize, uses_cpu: bool, uses_progr: bool) {
        if units > 0 {
            self.pool.release(units);
        }
        if uses_cpu {
            self.cpu_slots_free += 1;
        }
        if uses_progr {
            self.progr_slots_free += 1;
        }
        self.mirror_registers();
    }

    /// Busy units fill bank registers from index 0 upward; the programmable
    /// PIM's single bit is busy when no kernel slot is free. Only the run of
    /// registers between the old and new busy counts changes, and it is
    /// rewritten as one range write.
    fn mirror_registers(&mut self) {
        let busy = self.pool.total_units() - self.pool.free_units();
        let changed = self.mirrored_busy.min(busy)..self.mirrored_busy.max(busy);
        let _ = self
            .registers
            .set_banks_busy(changed, busy > self.mirrored_busy);
        self.mirrored_busy = busy;
        self.registers.set_progr_busy(self.progr_slots_free == 0);
    }

    #[cfg(test)]
    pub(crate) fn registers(&self) -> &StatusRegisters {
        &self.registers
    }
}

impl Component for ResourceSoA {
    fn next_tick(&self) -> Option<(u128, u64)> {
        None
    }

    fn advance(&mut self, _to: (u128, u64)) -> Retired {
        Retired::Idle
    }
}

impl Component for Observer<'_> {
    fn next_tick(&self) -> Option<(u128, u64)> {
        None
    }

    fn advance(&mut self, _to: (u128, u64)) -> Retired {
        Retired::Idle
    }
}

/// One piece of execution state in the event core.
///
/// `next_tick` exposes the component's earliest pending event as a
/// `(femtoseconds, seq)` key; `advance(to)` retires exactly that event.
/// Passive components (resources, observer) report `None`/[`Retired::Idle`]
/// and only react to explicit driver calls.
pub(crate) trait Component {
    /// The `(time, seq)` key of this component's earliest pending event,
    /// or `None` when it has nothing scheduled.
    fn next_tick(&self) -> Option<(u128, u64)>;

    /// Retires the event at `to` (the key `next_tick` just returned).
    fn advance(&mut self, to: (u128, u64)) -> Retired;
}

/// Index key of a component registered in a [`ComponentSlab`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CompKey(usize);

/// A registered component. The observer is borrowed rather than owned —
/// it outlives the run (the engine flushes it after the driver returns).
pub(crate) enum Comp<'a, 'o> {
    Lanes(DeviceLanes),
    Sync(SyncLink),
    Resources(ResourceSoA),
    Observer(&'a mut Observer<'o>),
}

impl Component for Comp<'_, '_> {
    fn next_tick(&self) -> Option<(u128, u64)> {
        match self {
            Comp::Lanes(c) => c.next_tick(),
            Comp::Sync(c) => c.next_tick(),
            Comp::Resources(c) => c.next_tick(),
            Comp::Observer(c) => c.next_tick(),
        }
    }

    fn advance(&mut self, to: (u128, u64)) -> Retired {
        match self {
            Comp::Lanes(c) => c.advance(to),
            Comp::Sync(c) => c.advance(to),
            Comp::Resources(c) => c.advance(to),
            Comp::Observer(c) => c.advance(to),
        }
    }
}

/// The component registry a driver runs over, plus the shared sequence
/// counter that makes the cross-component event order deterministic (see
/// the module docs).
pub(crate) struct ComponentSlab<'a, 'o> {
    comps: Vec<Comp<'a, 'o>>,
    seq: u64,
    tie: crate::fuzz::TieBreak,
}

impl<'a, 'o> ComponentSlab<'a, 'o> {
    pub fn new(tie: crate::fuzz::TieBreak) -> Self {
        ComponentSlab {
            comps: Vec::with_capacity(4),
            seq: 0,
            tie,
        }
    }

    /// Registers a component; the returned key indexes it forever.
    pub fn register(&mut self, comp: Comp<'a, 'o>) -> CompKey {
        self.comps.push(comp);
        CompKey(self.comps.len() - 1)
    }

    /// Allocates the next globally unique event sequence number. Under
    /// [`crate::fuzz::TieBreak::Stable`] this is the allocation counter
    /// itself (program order); the seeded modes remap it through a
    /// bijective xorshift* permutation, which keeps every key unique —
    /// the determinism invariant of the `(time, seq)` merge — while
    /// permuting the pop order among same-femtosecond events.
    pub fn next_seq(&mut self) -> u64 {
        let s = self.tie.event_key(self.seq);
        self.seq += 1;
        s
    }

    /// The component holding the globally earliest pending event, by
    /// `(time, seq)`; `None` when every component is idle.
    pub fn earliest(&self) -> Option<CompKey> {
        self.comps
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.next_tick().map(|tick| (tick, CompKey(i))))
            .min_by_key(|&(tick, _)| tick)
            .map(|(_, key)| key)
    }

    /// Advances `key` past its earliest event; `None` when it is idle.
    pub fn advance(&mut self, key: CompKey) -> Option<(u128, Retired)> {
        let comp = &mut self.comps[key.0];
        let tick = comp.next_tick()?;
        Some((tick.0, comp.advance(tick)))
    }

    pub fn lanes(&self, key: CompKey) -> &DeviceLanes {
        match &self.comps[key.0] {
            Comp::Lanes(c) => c,
            _ => unreachable!("key does not index a DeviceLanes component"),
        }
    }

    pub fn lanes_mut(&mut self, key: CompKey) -> &mut DeviceLanes {
        match &mut self.comps[key.0] {
            Comp::Lanes(c) => c,
            _ => unreachable!("key does not index a DeviceLanes component"),
        }
    }

    pub fn sync_mut(&mut self, key: CompKey) -> &mut SyncLink {
        match &mut self.comps[key.0] {
            Comp::Sync(c) => c,
            _ => unreachable!("key does not index a SyncLink component"),
        }
    }

    pub fn resources(&self, key: CompKey) -> &ResourceSoA {
        match &self.comps[key.0] {
            Comp::Resources(c) => c,
            _ => unreachable!("key does not index a ResourceSoA component"),
        }
    }

    pub fn resources_mut(&mut self, key: CompKey) -> &mut ResourceSoA {
        match &mut self.comps[key.0] {
            Comp::Resources(c) => c,
            _ => unreachable!("key does not index a ResourceSoA component"),
        }
    }

    pub fn observer(&mut self, key: CompKey) -> &mut Observer<'o> {
        match &mut self.comps[key.0] {
            Comp::Observer(c) => c,
            _ => unreachable!("key does not index the Observer component"),
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
    pub fn add(&mut self, planned: &PlannedOp) {
        self.op_raw += planned.op_part;
        self.dm_raw += planned.dm_part;
        self.sync_raw += planned.sync_part;
        self.energy += planned.energy;
        if planned.uses_cpu {
            self.cpu_busy += planned.duration;
        }
        if planned.uses_progr {
            self.progr_busy += planned.duration;
        }
        self.ff_unit_seconds += planned.ff_units as f64 * planned.ff_busy.seconds();
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
    use pim_common::ids::BankId;
    use pim_common::units::Bytes;
    use pim_tensor::cost::{CostProfile, OffloadClass};

    #[test]
    fn event_heap_orders_by_time_then_fifo() {
        let mut heap: EventHeap<usize> = EventHeap::new();
        heap.push(Seconds::new(2e-6), 0, 0);
        heap.push(Seconds::new(1e-6), 1, 1);
        heap.push(Seconds::new(1e-6), 2, 2);
        let order: Vec<usize> = std::iter::from_fn(|| heap.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, vec![1, 2, 0]);
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
    }

    #[test]
    fn resource_soa_mirrors_the_fig7_registers() {
        let planner = Planner::new(EngineConfig::preset(SystemPreset::Hetero));
        let mut state = ResourceSoA::new(&planner);
        assert!(state.registers().all_banks_idle());
        assert!(!state.registers().progr_busy());

        let cost = CostProfile::compute(
            1e9,
            1e9,
            0.0,
            Bytes::new(1e7),
            Bytes::new(1e7),
            OffloadClass::FullyMulAdd,
            128,
        );
        let kind = PlanKind::FixedWhole {
            rc_runtime: true,
            units: 128,
        };
        let planned = planner.plan_cost(kind, &cost);
        let units = state.acquire(kind, &planned).unwrap();
        assert_eq!(units, 128);
        assert_eq!(
            state.registers().idle_bank_count(),
            planner.pool_cfg().total_units - 128
        );
        assert_eq!(
            state.availability().ff_free,
            planner.pool_cfg().total_units - 128
        );
        // Busy units fill the bank registers from index 0 upward.
        let bank = |i| state.registers().bank_busy(BankId::new(i)).unwrap();
        assert!(bank(0) && bank(127) && !bank(128));

        state.release(units, false, false);
        assert!(state.registers().all_banks_idle());
    }

    #[test]
    fn progr_slots_saturate_the_busy_bit() {
        let planner = Planner::new(EngineConfig::preset(SystemPreset::Hetero));
        let mut state = ResourceSoA::new(&planner);
        let cost = CostProfile::compute(
            0.0,
            0.0,
            1e8,
            Bytes::new(1e6),
            Bytes::new(1e6),
            OffloadClass::NonMulAdd,
            0,
        );
        let planned = planner.plan_cost(PlanKind::Progr, &cost);
        for _ in 0..PROGR_KERNEL_SLOTS {
            assert!(state.availability().progr_free);
            state.acquire(PlanKind::Progr, &planned).unwrap();
        }
        assert!(!state.availability().progr_free);
        assert!(state.registers().progr_busy());
        state.release(0, false, true);
        assert!(state.availability().progr_free);
        assert!(!state.registers().progr_busy());
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
            units: 0,
            attempt: 0,
            outcome: AttemptOutcome::Completed,
            start,
            inflight_at_dispatch: 1,
            candidate: false,
            live: true,
        }
    }

    #[test]
    fn slab_merges_components_by_time_then_seq() {
        // Two event-bearing components with interleaved, partly
        // simultaneous events: the slab must retire them in global
        // (time, seq) order, i.e. FIFO among simultaneous events even
        // across components.
        let mut slab = ComponentSlab::new(crate::fuzz::TieBreak::Stable);
        let lanes = slab.register(Comp::Lanes(DeviceLanes::new()));
        let sync = slab.register(Comp::Sync(SyncLink::new()));

        let t1 = Seconds::new(1e-6);
        let t2 = Seconds::new(2e-6);
        let seq = slab.next_seq();
        slab.lanes_mut(lanes)
            .dispatch(t2, stub_record(Seconds::ZERO), seq); // seq 0 @ t2
        let seq = slab.next_seq();
        slab.sync_mut(sync).schedule_retry(t1, 0, 0, 7, seq); // seq 1 @ t1
        let seq = slab.next_seq();
        slab.lanes_mut(lanes)
            .dispatch(t1, stub_record(Seconds::ZERO), seq); // seq 2 @ t1
        let seq = slab.next_seq();
        slab.sync_mut(sync).schedule_strike(t1, 3, seq); // seq 3 @ t1

        let mut order = Vec::new();
        while let Some(key) = slab.earliest() {
            let (_, retired) = slab.advance(key).unwrap();
            order.push(match retired {
                Retired::Retry { op, .. } => format!("retry{op}"),
                Retired::Strike(i) => format!("strike{i}"),
                Retired::Op(_) => "op".to_string(),
                other => panic!("unexpected retirement {other:?}"),
            });
        }
        assert_eq!(order, vec!["retry7", "op", "strike3", "op"]);
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
    fn stale_lane_events_reclaim_their_slot() {
        let mut slab = ComponentSlab::new(crate::fuzz::TieBreak::Stable);
        let lanes = slab.register(Comp::Lanes(DeviceLanes::new()));
        let seq = slab.next_seq();
        slab.lanes_mut(lanes)
            .dispatch(Seconds::new(1e-6), stub_record(Seconds::ZERO), seq);
        slab.lanes_mut(lanes).kill(0);
        let (_, retired) = slab.advance(slab.earliest().unwrap()).unwrap();
        assert!(matches!(retired, Retired::Stale));
        // The freed slot is recycled by the next dispatch.
        let seq = slab.next_seq();
        slab.lanes_mut(lanes)
            .dispatch(Seconds::new(2e-6), stub_record(Seconds::new(1e-6)), seq);
        let (_, retired) = slab.advance(slab.earliest().unwrap()).unwrap();
        assert!(matches!(retired, Retired::Op(_)));
        assert!(slab.earliest().is_none());
    }
}
