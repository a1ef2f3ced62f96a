//! The execution drivers, running over the discrete-event core.
//!
//! Two drivers cover every engine configuration:
//!
//! * [`run_serialized`] — one op at a time in topological order (the
//!   "without runtime scheduling" configurations),
//! * [`run_scheduled`] — the event-driven operation pipeline (§III-C).
//!
//! (The standalone GPU and Neurocube baselines need no scheduler; they run
//! a plain serial loop in `pim-sim`.)
//!
//! Both drivers are generic over a [`FaultPolicy`]: the
//! zero-sized [`NoFaults`](super::faults::NoFaults) compiles every fault
//! hook away, while [`FaultContext`](super::faults::FaultContext) injects
//! the plan's faults and recovers from them. The policy's `FAULTY` constant
//! fixes when an attempt is charged and recorded (see [`FaultPolicy`]).
//!
//! The event-driven driver owns one [`EventQueue`] of [`Event`]s — op
//! completions, retry wakes and permanent strikes — and loops on its
//! earliest `(time, seq)` key; see the [`components`](super::components)
//! module docs for the determinism argument.
//!
//! Its dispatch pass works by *demand class* ([`DemandClass`]): the part
//! of an op that decides whether [`Planner::choose`] can place it at all.
//! The ready set keeps one queue per class of the ready instances inside
//! their pipeline window, and parks the rest until their window reaches
//! them. An admission table answers, once per availability signature,
//! which classes fit. The pass pops the first admitted head until nothing
//! fits, so it never visits an op whose class cannot be placed. DESIGN.md
//! §4.9 shows it places exactly what one in-order pass over every ready op
//! would.
//!
//! The loop's state is small and flat. A class queue holds a few entries
//! at a time (1–5 on average when popped, over the paper's models and
//! co-runs), so it is a `Vec` sorted in descending dispatch order rather
//! than a heap: its head is the last entry. An entry is 16 bytes: the
//! tie-break hash and `step << 32 | place`, where the place table sorts
//! every op by `(rank, wl)`, so the word orders like `(step, rank, wl)`.
//! The per-instance tables (remaining dependencies, attempts), the
//! per-step counts and the per-op plan memo are one `Vec` each, indexed
//! through a per-workload base, and a retry event carries the instance's
//! row in them.
//!
//! What an attempt holds is its [`PlanKind`]'s: both drivers acquire,
//! release, bill busy time, decide strike kills and move the
//! fixed-function occupancy counter from the kind, and a [`PlannedOp`]
//! carries only the costs.
//!
//! Both drivers account time and energy through the same
//! [`Accumulator`], build their result via
//! [`ReportBuilder`](crate::stats::ReportBuilder), and observe execution
//! through an [`Observer`]: counters always, a
//! [`TimelineEntry`](super::TimelineEntry) per committed attempt when the
//! run collects a timeline, and Chrome-trace spans when the run asks for a
//! trace.

use super::components::{
    Accumulator, Clock, DeviceLanes, Event, EventQueue, InFlight, ResourceSoA,
};
use super::faults::{backoff_after, charge_until, AttemptOutcome, FaultContext, FaultPolicy};
use super::limits::RunLimits;
use super::observe::{Observer, OpEnd, OpRecord};
use super::placement::{
    Availability, DemandClass, PlanKind, PlannedOp, Planner, PLACEMENT_DECISION, SIGNATURES,
};
use super::{PlanTable, Prepared, SystemMode};
use crate::fuzz::TieBreak;
use crate::stats::ExecutionReport;
use crate::sync::STEP_BARRIER;
use pim_common::ids::OpId;
use pim_common::units::Seconds;
use pim_common::{PimError, Result};
use pim_hw::faults::FaultTarget;
use std::ops::Range;

/// Charges one attempt to the accumulator and records it with the
/// observer: a timeline entry ending at `end`, billed `charge`.
fn commit(
    acc: &mut Accumulator,
    obs: &mut Observer<'_>,
    wl: &Prepared<'_>,
    rec: &InFlight,
    end: OpEnd,
    charge: &PlannedOp,
    outcome: AttemptOutcome,
) {
    acc.add(rec.kind, charge);
    obs.record_op(&OpRecord {
        attempt: rec,
        end,
        outcome,
        planned: charge,
        cost: &wl.costs[rec.op],
        graph: wl.spec.graph,
    });
}

/// Applies one permanent strike to the resource ledger at `at` and
/// reports it. A fixed-function strike loses at most the units still
/// alive.
fn quarantine(
    resources: &mut ResourceSoA,
    target: FaultTarget,
    obs: &mut Observer<'_>,
    at: Seconds,
) -> Result<()> {
    match target {
        FaultTarget::FixedUnits(n) => {
            let n = n.min(resources.alive_ff());
            resources.quarantine_ff(n)?;
            obs.quarantine(at, "ff units", n);
        }
        FaultTarget::ProgrPim => {
            resources.quarantine_progr();
            obs.quarantine(at, "progr pim", 1);
        }
    }
    Ok(())
}

/// A fresh resource ledger with the policy's before-run quarantine
/// applied at time zero.
fn resources_at_start<P: FaultPolicy>(
    planner: &Planner,
    policy: &P,
    obs: &mut Observer<'_>,
) -> Result<ResourceSoA> {
    let mut resources = ResourceSoA::new(planner);
    if policy.initial_ff() > 0 {
        let target = FaultTarget::FixedUnits(policy.initial_ff());
        quarantine(&mut resources, target, obs, Seconds::ZERO)?;
    }
    if policy.initial_progr_dead() {
        quarantine(&mut resources, FaultTarget::ProgrPim, obs, Seconds::ZERO)?;
    }
    Ok(resources)
}

/// Sequential execution: one op at a time in topological order per step —
/// the "without runtime scheduling" configurations. Under a fault plan
/// each op instance runs as a chain of attempts: bounded retry with
/// exponential backoff, timeout re-dispatch, and permanent strikes taking
/// effect at their scheduled times. A killed attempt is charged for the
/// fraction of the work the device actually performed.
///
/// One op at a time means everything that survives is free at each
/// placement, so each op's plan depends only on what the quarantines so
/// far leave of the machine. The driver reads it from the engine's
/// `table`, keyed by that state: it fetches the current state's plans
/// when each workload starts (a before-run quarantine is already in the
/// ledger) and again after a strike changes the state, and never plans
/// an attempt itself.
pub(crate) fn run_serialized<P: FaultPolicy>(
    planner: &Planner,
    table: &PlanTable,
    prepared: &[Prepared<'_>],
    obs: &mut Observer<'_>,
    policy: &P,
    limits: &RunLimits,
) -> Result<ExecutionReport> {
    let mut acc = Accumulator::default();
    let mut clock = Clock::new();
    let mut gauge = limits.gauge();
    // One op runs at a time and holds nothing in the ledger, which only
    // tracks quarantine here: its availability is everything alive.
    let mut resources = resources_at_start(planner, policy, obs)?;
    let strikes = policy.strikes();
    let mut next_strike = 0usize;
    for (w, wl) in prepared.iter().enumerate() {
        let mut alive = resources.survivors();
        let mut plans = table.get(planner, wl, alive)?;
        for step in 0..wl.spec.steps {
            for &op in wl.topo {
                let candidate = wl.candidates.contains(OpId::new(op));
                let mut attempt = 0u32;
                loop {
                    // Strikes due by now take effect before placement.
                    while let Some(s) = strikes.get(next_strike).copied() {
                        if s.at > clock.now() {
                            break;
                        }
                        quarantine(&mut resources, s.target, obs, s.at)?;
                        next_strike += 1;
                    }
                    // Only a faulted run strikes, so only it changes state.
                    if P::FAULTY && resources.survivors() != alive {
                        alive = resources.survivors();
                        plans = table.get(planner, wl, alive)?;
                    }
                    debug_assert_eq!(
                        resources.availability(),
                        Availability::surviving(alive.0, alive.1)
                    );
                    let (kind, planned) = plans[op];
                    let start = clock.now();
                    let (mut charge, mut outcome) =
                        policy.attempt(kind, planned, (w, step, op), attempt, start);
                    let mut end = start + charge.duration;
                    // A strike landing inside the attempt kills it at the
                    // strike instant when it takes the resources under it.
                    while let Some(s) = strikes.get(next_strike).copied() {
                        if s.at >= end {
                            break;
                        }
                        let idle = match s.target {
                            FaultTarget::FixedUnits(_) => {
                                resources.alive_ff().saturating_sub(kind.units())
                            }
                            FaultTarget::ProgrPim => 0,
                        };
                        let kills = FaultContext::strike_kills(s.target, kind, idle);
                        quarantine(&mut resources, s.target, obs, s.at)?;
                        next_strike += 1;
                        if kills {
                            charge = charge_until(&charge, start, s.at);
                            end = s.at.max(start);
                            outcome = AttemptOutcome::Killed;
                            obs.killed(s.at, w, step, op);
                            break;
                        }
                    }
                    let rec = InFlight {
                        wl: w,
                        step,
                        op,
                        kind,
                        charge,
                        attempt,
                        outcome,
                        start,
                        inflight_at_dispatch: 1,
                        candidate,
                        live: true,
                    };
                    commit(&mut acc, obs, wl, &rec, OpEnd::At(end), &charge, outcome);
                    obs.ff_delta(start, kind.units() as isize);
                    // The fault-free policy advances by the planned
                    // duration, the faulted one by the recorded interval
                    // (it may end early at a strike); the two sums can
                    // round differently, and each is pinned by its golden.
                    clock.advance(if P::FAULTY {
                        end - start
                    } else {
                        charge.duration
                    });
                    // One "event" per attempt: this driver has no event
                    // queue, so the budget check rides the serial loop
                    // (retries and re-dispatches count — fuel must bound a
                    // run that never completes).
                    gauge.tick()?;
                    obs.ff_delta(clock.now(), -(kind.units() as isize));
                    if planner.cfg.mode == SystemMode::Hetero {
                        clock.advance(PLACEMENT_DECISION);
                        acc.sync_raw += PLACEMENT_DECISION;
                        obs.decision(PLACEMENT_DECISION);
                    }
                    match outcome {
                        AttemptOutcome::Completed => {
                            obs.completed();
                            break;
                        }
                        AttemptOutcome::Transient => {
                            obs.fault(end, "transient", w, step, op);
                            obs.retried();
                            let backoff = backoff_after(attempt);
                            clock.advance(backoff);
                            acc.sync_raw += backoff;
                        }
                        AttemptOutcome::TimedOut => {
                            obs.fault(end, "timed-out", w, step, op);
                            obs.redispatched();
                        }
                        AttemptOutcome::Killed => {
                            obs.retried();
                        }
                    }
                    attempt += 1;
                }
            }
            clock.advance(STEP_BARRIER);
            acc.sync_raw += STEP_BARRIER;
            obs.barrier(clock.now(), STEP_BARRIER);
        }
    }
    let steps = prepared.iter().map(|w| w.spec.steps).max().unwrap_or(0);
    Ok(acc.into_report(planner, steps, clock.now()))
}

/// A ready instance as the dispatcher reads it: step first (pipeline
/// order), then topological rank, then workload. `rank` is unique within a
/// workload, so `(step, rank, wl)` is already a total order and `op` (the
/// workload's `topo[rank]`) rides along for the dispatcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    step: usize,
    rank: usize,
    wl: usize,
    op: usize,
}

/// A class-queue entry's place in the dispatch order: the tie-break hash,
/// then `step << 32 | place`, where `place` indexes the place table. The
/// table is sorted by `(rank, wl)`, so the packed word orders exactly like
/// `(step, rank, wl)`. The hash is zero except under
/// [`TieBreak::Priority`], which dispatches by seeded hash and breaks hash
/// ties in [`Key`] order.
type Order = (u64, u64);

const _: () = assert!(std::mem::size_of::<Order>() == 16);

/// One row of the place table: an op, its topological rank and its demand
/// class.
#[derive(Debug, Clone, Copy)]
struct Place {
    wl: u32,
    op: u32,
    rank: u32,
    class: u32,
}

/// Where one workload's rows start in the ready set's flat tables: per op,
/// per step and per instance. Instance `(step, op)` is row
/// `instance + step * ops + op`.
#[derive(Debug, Clone, Copy)]
struct Base {
    op: usize,
    step: usize,
    instance: usize,
    ops: usize,
}

/// The ready instances of one demand class that lie inside their own
/// workload's pipeline window.
struct Class {
    demand: DemandClass,
    /// A member `(wl, op)` whose placeability stands for the class's.
    rep: (usize, usize),
    /// Sorted in descending dispatch order, so the head is the last entry.
    queue: Vec<Order>,
}

/// Dependency/readiness bookkeeping of the scheduled driver.
///
/// Each demand class keeps its in-window ready instances in a vector
/// sorted in descending dispatch order, so its last entry is its first
/// in-window instance in dispatch order. A ready instance past its
/// workload's window end is parked until the window reaches its step. The
/// dispatch pass asks which classes fit the current availability and pops
/// the first head among them, so it never visits an instance whose class
/// cannot be placed.
///
/// Every table is one flat `Vec`, indexed through the workload's [`Base`].
struct ReadySet {
    bases: Vec<Base>,
    /// Per instance, the dependencies not yet complete.
    remaining: Vec<u32>,
    /// Per step, the instances not yet complete.
    step_left: Vec<u32>,
    /// Pipeline depth: how many steps past its lowest incomplete one a
    /// workload may dispatch from.
    depth: usize,
    /// Per workload, the open pipeline window: from the lowest step with
    /// an incomplete instance (no ready instance lies below it) through
    /// `depth` steps, clipped to the workload's step count.
    windows: Vec<Range<usize>>,
    tie: TieBreak,
    /// Per op, its row in `places`.
    place_of: Vec<u32>,
    /// Every op, sorted by `(rank, wl)`.
    places: Vec<Place>,
    classes: Vec<Class>,
    /// One bit per class, set while its queue holds an instance, so
    /// [`ReadySet::first`] peeks only admitted classes with a head.
    nonempty: Vec<u64>,
    /// Per step, the ready instances past the window's end, packed as in
    /// [`Order`].
    parked: Vec<Vec<u64>>,
    /// Instances in `parked`.
    closed: usize,
    /// Ready instances, in or out of their window.
    ready: usize,
}

impl ReadySet {
    fn new(prepared: &[Prepared<'_>], depth: usize, tie: TieBreak) -> Self {
        let mut bases = Vec::with_capacity(prepared.len());
        let (mut ops, mut steps, mut instances) = (0, 0, 0);
        for wl in prepared {
            let n = wl.topo.len();
            bases.push(Base {
                op: ops,
                step: steps,
                instance: instances,
                ops: n,
            });
            ops += n;
            steps += wl.spec.steps;
            instances += wl.spec.steps * n;
        }
        let max_steps = prepared.iter().map(|wl| wl.spec.steps).max().unwrap_or(0);
        assert!(
            [ops, max_steps, instances, prepared.len()]
                .iter()
                .all(|&n| u32::try_from(n).is_ok()),
            "op, step, instance and workload counts must fit a packed key"
        );
        let mut remaining = Vec::with_capacity(instances);
        for wl in prepared {
            for step in 0..wl.spec.steps {
                remaining.extend(
                    wl.deps
                        .iter()
                        .map(|d| (d.len() + usize::from(step > 0)) as u32),
                );
            }
        }
        let step_left = prepared
            .iter()
            .flat_map(|wl| std::iter::repeat_n(wl.topo.len() as u32, wl.spec.steps))
            .collect();
        let mut classes: Vec<Class> = Vec::new();
        let mut places = Vec::with_capacity(ops);
        for (w, wl) in prepared.iter().enumerate() {
            for op in 0..wl.topo.len() {
                let demand = DemandClass::of(
                    &wl.costs[op],
                    wl.candidates.contains(OpId::new(op)),
                    wl.spec.cpu_progr_only,
                );
                let class = classes
                    .iter()
                    .position(|class| class.demand == demand)
                    .unwrap_or_else(|| {
                        classes.push(Class {
                            demand,
                            rep: (w, op),
                            queue: Vec::new(),
                        });
                        classes.len() - 1
                    });
                places.push(Place {
                    wl: w as u32,
                    op: op as u32,
                    rank: wl.rank[op] as u32,
                    class: class as u32,
                });
            }
        }
        places.sort_unstable_by_key(|p| (p.rank, p.wl));
        let mut place_of = vec![0; ops];
        for (i, p) in (0u32..).zip(&places) {
            place_of[bases[p.wl as usize].op + p.op as usize] = i;
        }
        let mut rs = ReadySet {
            remaining,
            step_left,
            depth,
            windows: prepared
                .iter()
                .map(|wl| 0..depth.min(wl.spec.steps))
                .collect(),
            tie,
            place_of,
            places,
            nonempty: vec![0; classes.len().div_ceil(64)],
            classes,
            parked: vec![Vec::new(); steps],
            closed: 0,
            ready: 0,
            bases,
        };
        for (w, wl) in prepared.iter().enumerate() {
            for (op, deps) in wl.deps.iter().enumerate() {
                if deps.is_empty() && wl.spec.steps > 0 {
                    rs.insert(w, 0, op);
                }
            }
        }
        rs
    }

    /// The flat per-instance row of `(wl, step, op)`.
    fn instance(&self, wl: usize, step: usize, op: usize) -> usize {
        let base = self.bases[wl];
        base.instance + step * base.ops + op
    }

    /// The `(wl, step, op)` of a per-instance row.
    fn locate(&self, instance: usize) -> (usize, usize, usize) {
        // Workloads with no instances share their successor's start, so
        // the last base at or below the row is the one holding it.
        let wl = self.bases.partition_point(|b| b.instance <= instance) - 1;
        let base = self.bases[wl];
        let within = instance - base.instance;
        (wl, within / base.ops, within % base.ops)
    }

    /// The flat per-op row of `(wl, op)`.
    fn op_row(&self, wl: usize, op: usize) -> usize {
        self.bases[wl].op + op
    }

    /// Makes `(wl, step, op)` ready: its dependencies just completed, or
    /// its last attempt failed.
    fn insert(&mut self, wl: usize, step: usize, op: usize) {
        self.ready += 1;
        let packed = (step as u64) << 32 | u64::from(self.place_of[self.op_row(wl, op)]);
        if step < self.windows[wl].end {
            self.enqueue(packed);
        } else {
            self.parked[self.bases[wl].step + step].push(packed);
            self.closed += 1;
        }
    }

    /// Inserts an in-window instance into its class queue. The new entry
    /// goes below every entry after it in dispatch order: keys are unique,
    /// so the queue pops in exactly a min-heap's order.
    fn enqueue(&mut self, packed: u64) {
        let place = self.places[packed as u32 as usize];
        let hash = match self.tie {
            TieBreak::Stable | TieBreak::Permuted(_) => 0,
            TieBreak::Priority(_) => self.tie.decision_hash(&[
                packed >> 32,
                u64::from(place.rank),
                u64::from(place.wl),
                u64::from(place.op),
            ]),
        };
        let c = place.class as usize;
        let order = (hash, packed);
        let queue = &mut self.classes[c].queue;
        let at = queue.iter().rposition(|&o| o > order).map_or(0, |i| i + 1);
        queue.insert(at, order);
        self.nonempty[c / 64] |= 1 << (c % 64);
    }

    /// The instance a packed class-queue word stands for.
    fn key(&self, packed: u64) -> Key {
        let place = self.places[packed as u32 as usize];
        Key {
            step: (packed >> 32) as usize,
            rank: place.rank as usize,
            wl: place.wl as usize,
            op: place.op as usize,
        }
    }

    /// Ready instances, in or out of their pipeline window.
    fn len(&self) -> usize {
        self.ready
    }

    /// Ready instances outside their own workload's pipeline window.
    fn window_closed(&self) -> usize {
        self.closed
    }

    /// Releases the dependents of a completed instance and advances the
    /// per-workload pipeline-window bookkeeping.
    fn complete(&mut self, prepared: &[Prepared<'_>], w: usize, step: usize, op: usize) {
        let wl = &prepared[w];
        let row = self.instance(w, step, 0);
        // Intra-step consumers.
        for &c in &wl.consumers[op] {
            let r = &mut self.remaining[row + c];
            *r -= 1;
            if *r == 0 {
                self.insert(w, step, c);
            }
        }
        // Cross-step successor: the same op in the next step.
        if step + 1 < wl.spec.steps {
            let next = self.instance(w, step + 1, op);
            let r = &mut self.remaining[next];
            *r -= 1;
            if *r == 0 {
                self.insert(w, step + 1, op);
            }
        }
        // Step-completion bookkeeping for the pipeline window.
        let first_step = self.bases[w].step;
        let left = &mut self.step_left[first_step + step];
        *left -= 1;
        let win = &mut self.windows[w];
        if win.start == step && *left == 0 {
            while win.start < wl.spec.steps && self.step_left[first_step + win.start] == 0 {
                win.start += 1;
            }
            let old_end = win.end;
            win.end = (win.start + self.depth).min(wl.spec.steps);
            // The window only grows upward (no ready instance lies below
            // its start), so the instances it admits are exactly the
            // parked ones.
            for s in old_end..win.end {
                for packed in std::mem::take(&mut self.parked[first_step + s]) {
                    self.closed -= 1;
                    self.enqueue(packed);
                }
            }
        }
    }

    /// The class whose head comes first in dispatch order among the
    /// classes whose bit is set in `admitted`. Only classes with a head
    /// are visited.
    fn first(&self, admitted: &[u64]) -> Option<usize> {
        let mut best: Option<(Order, usize)> = None;
        for (i, (&admit, &nonempty)) in admitted.iter().zip(&self.nonempty).enumerate() {
            for b in ones(admit & nonempty) {
                let c = i * 64 + b;
                if let Some(&order) = self.classes[c].queue.last() {
                    if best.is_none_or(|(first, _)| order < first) {
                        best = Some((order, c));
                    }
                }
            }
        }
        best.map(|(_, c)| c)
    }

    /// Takes class `c`'s head: the only way an instance leaves the set.
    fn pop(&mut self, c: usize) -> Option<Key> {
        let queue = &mut self.classes[c].queue;
        let (_, packed) = queue.pop()?;
        if queue.is_empty() {
            self.nonempty[c / 64] &= !(1 << (c % 64));
        }
        self.ready -= 1;
        Some(self.key(packed))
    }
}

/// The indices of the set bits of `word`, ascending.
fn ones(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let b = word.trailing_zeros() as usize;
            word &= word - 1;
            b
        })
    })
}

/// Which demand classes [`Planner::choose`] can place, per availability
/// signature ([`Availability::signature`]). Each signature's class mask
/// is filled on first use by asking `choose` about one representative op
/// per class. A quarantine changes what the degradation branches allow,
/// so the table is refilled whenever `ff_alive`/`progr_alive` move.
struct Admission {
    /// Mask words per signature.
    words: usize,
    /// The `(ff_alive, progr_alive)` the filled masks hold for.
    alive: (usize, bool),
    filled: Vec<bool>,
    masks: Vec<u64>,
}

impl Admission {
    fn new(classes: usize) -> Self {
        let words = classes.div_ceil(64);
        Admission {
            words,
            alive: (usize::MAX, false),
            filled: vec![false; SIGNATURES],
            masks: vec![0; SIGNATURES * words],
        }
    }

    /// The classes placeable under `avail`, as a bit mask.
    #[inline]
    fn mask(
        &mut self,
        planner: &Planner,
        prepared: &[Prepared<'_>],
        rs: &ReadySet,
        avail: Availability,
    ) -> &[u64] {
        let sig = avail.signature();
        if !self.filled[sig] || (avail.ff_alive, avail.progr_alive) != self.alive {
            self.fill(planner, prepared, rs, avail);
        }
        &self.masks[sig * self.words..(sig + 1) * self.words]
    }

    /// Fills `avail`'s signature, first dropping every mask when the
    /// alive counts moved since the masks were filled.
    #[cold]
    #[inline(never)]
    fn fill(
        &mut self,
        planner: &Planner,
        prepared: &[Prepared<'_>],
        rs: &ReadySet,
        avail: Availability,
    ) {
        if (avail.ff_alive, avail.progr_alive) != self.alive {
            self.alive = (avail.ff_alive, avail.progr_alive);
            self.filled.fill(false);
        }
        let sig = avail.signature();
        self.filled[sig] = true;
        let mask = &mut self.masks[sig * self.words..(sig + 1) * self.words];
        mask.fill(0);
        for (c, class) in rs.classes.iter().enumerate() {
            let (w, op) = class.rep;
            let DemandClass {
                candidate,
                restricted,
                ..
            } = class.demand;
            if planner
                .choose(&prepared[w].costs[op], candidate, restricted, avail)
                .is_some()
            {
                mask[c / 64] |= 1 << (c % 64);
            }
        }
    }
}

/// Event-driven execution with the operation pipeline. Under a fault plan
/// an attempt's fate is decided at dispatch, a failed attempt re-enters
/// the ready set (after its backoff, for transients), and permanent
/// strikes arrive as events that kill the in-flight attempts under them.
pub(crate) fn run_scheduled<P: FaultPolicy>(
    planner: &Planner,
    prepared: &[Prepared<'_>],
    obs: &mut Observer<'_>,
    policy: &P,
    tie: TieBreak,
    limits: &RunLimits,
) -> Result<ExecutionReport> {
    let mut rs = ReadySet::new(prepared, planner.cfg.pipeline_depth, tie);
    let mut admission = Admission::new(rs.classes.len());
    let mut gauge = limits.gauge();
    let total_instances: usize = prepared
        .iter()
        .map(|wl| wl.spec.steps * wl.topo.len())
        .sum();
    // Attempt counter per instance (indexed by `rs.instance`). A fault-free
    // attempt is always the first, so only a faulted run needs the table.
    let mut attempts: Vec<u32> = if P::FAULTY {
        vec![0; total_instances]
    } else {
        Vec::new()
    };

    let mut resources = resources_at_start(planner, policy, obs)?;
    let mut lanes = DeviceLanes::new();
    let mut events: EventQueue<Event> = EventQueue::new();
    // One sequence counter keys every event, drawn in program order:
    // strikes first, then one per dispatch and one per transient retry.
    let mut pushed = 0u64;
    let mut next_seq = move || {
        pushed += 1;
        tie.event_key(pushed - 1)
    };

    for (i, s) in (0u32..).zip(policy.strikes()) {
        events.push(s.at, Event::Strike(i), next_seq());
    }

    let mut clock = Clock::new();
    let mut acc = Accumulator::default();
    let mut completed = 0usize;
    let mut inflight = 0usize;
    // The last placement of each op (indexed by `rs.op_row`): `plan_cost`
    // is pure, so a repeat of the same kind reuses it.
    let mut plans: Vec<Option<(PlanKind, PlannedOp)>> = vec![None; rs.places.len()];

    while completed < total_instances {
        // Schedule everything that fits right now: repeatedly take the
        // first in-window key, in dispatch order, among the demand classes
        // the current availability admits. This places exactly what one
        // pass over every in-window key in dispatch order would: placing
        // an op only consumes resources and never unlocks readiness, and
        // `choose` is monotone in availability, so a key that did not fit
        // earlier in the pass cannot fit later in it, and the first key
        // that fits is always the first admitted head.
        let avail = loop {
            let avail = resources.availability();
            let admitted = admission.mask(planner, prepared, &rs, avail);
            let Some(key) = rs.first(admitted).and_then(|c| rs.pop(c)) else {
                break avail;
            };
            let wl = &prepared[key.wl];
            let cost = &wl.costs[key.op];
            let is_candidate = wl.candidates.contains(OpId::new(key.op));
            let kind = planner
                .choose(cost, is_candidate, wl.spec.cpu_progr_only, avail)
                .ok_or_else(|| PimError::internal("an admitted demand class found no device"))?;
            let memo = &mut plans[rs.op_row(key.wl, key.op)];
            let planned = match *memo {
                Some((memo_kind, planned)) if memo_kind == kind => planned,
                _ => {
                    let planned = planner.plan_cost(kind, cost);
                    *memo = Some((kind, planned));
                    planned
                }
            };
            let attempt = if P::FAULTY {
                attempts[rs.instance(key.wl, key.step, key.op)]
            } else {
                0
            };
            let (charge, outcome) = policy.attempt(
                kind,
                planned,
                (key.wl, key.step, key.op),
                attempt,
                clock.now(),
            );
            resources.acquire(kind)?;
            inflight += 1;
            let slot = lanes.park(InFlight {
                wl: key.wl,
                step: key.step,
                op: key.op,
                kind,
                charge,
                attempt,
                outcome,
                start: clock.now(),
                inflight_at_dispatch: inflight,
                candidate: is_candidate,
                live: true,
            });
            let end_fs = events.push(clock.now() + charge.duration, Event::Op(slot), next_seq());
            if !P::FAULTY {
                // A fault-free attempt always completes as planned: commit
                // it now, ending at the same femtosecond quantization the
                // event queue uses, so timeline intervals match the actual
                // resource hold times exactly.
                let end = OpEnd::Fs(end_fs);
                commit(&mut acc, obs, wl, lanes.get(slot), end, &charge, outcome);
            }
            obs.ff_delta(clock.now(), kind.units() as isize);
        };

        // Anything still ready is stalled: either no free resource fits
        // it, or its step sits outside the pipeline window.
        let window_closed = rs.window_closed();
        let resource_waiting = rs.len() - window_closed;
        if resource_waiting > 0 {
            obs.stall(clock.now(), resource_waiting, window_closed, avail);
        }

        let Some((t_fs, event)) = events.pop() else {
            return Err(PimError::internal(format!(
                "scheduler wedged with {completed} of {total_instances} instances done"
            )));
        };
        clock.jump_to_fs(t_fs);
        // The budget check site: once per popped event (retry wakes,
        // strikes and a killed attempt's stale event count too, so fuel
        // bounds a run that keeps faulting forever). On the unbounded
        // default this is a counter increment plus a never-true compare.
        gauge.tick()?;
        match event {
            Event::Op(slot) => {
                // `None`: a strike killed the attempt and accounted it.
                let Some(rec) = lanes.retire(slot) else {
                    continue;
                };
                resources.release(rec.kind);
                inflight -= 1;
                obs.ff_delta(clock.now(), -(rec.kind.units() as isize));
                let wl = &prepared[rec.wl];
                if P::FAULTY {
                    commit(
                        &mut acc,
                        obs,
                        wl,
                        rec,
                        OpEnd::At(clock.now()),
                        &rec.charge,
                        rec.outcome,
                    );
                }
                let instance = rs.instance(rec.wl, rec.step, rec.op);
                match rec.outcome {
                    AttemptOutcome::Completed => {
                        completed += 1;
                        obs.completed();
                        rs.complete(prepared, rec.wl, rec.step, rec.op);
                    }
                    AttemptOutcome::Transient => {
                        obs.fault(clock.now(), "transient", rec.wl, rec.step, rec.op);
                        obs.retried();
                        attempts[instance] += 1;
                        // `ReadySet::new` checked that instance rows fit u32.
                        let retry = Event::Retry(instance as u32);
                        events.push(clock.now() + backoff_after(rec.attempt), retry, next_seq());
                    }
                    AttemptOutcome::TimedOut => {
                        obs.fault(clock.now(), "timed-out", rec.wl, rec.step, rec.op);
                        obs.redispatched();
                        attempts[instance] += 1;
                        rs.insert(rec.wl, rec.step, rec.op);
                    }
                    AttemptOutcome::Killed => {
                        unreachable!("live in-flight records never carry Killed")
                    }
                }
            }
            Event::Retry(instance) => {
                let (wl, step, op) = rs.locate(instance as usize);
                rs.insert(wl, step, op);
            }
            Event::Strike(i) => {
                let s = policy.strikes()[i as usize];
                let lost = match s.target {
                    FaultTarget::FixedUnits(n) => n.min(resources.alive_ff()),
                    FaultTarget::ProgrPim => 0,
                };
                // Kill the in-flight attempts the strike lands on, earliest
                // dispatch first, until the lost resources are idle.
                loop {
                    let need_kill = match s.target {
                        FaultTarget::FixedUnits(_) => resources.free_ff() < lost,
                        FaultTarget::ProgrPim => lanes.any_live(|r| r.kind.uses_progr()),
                    };
                    if !need_kill {
                        break;
                    }
                    let victim = lanes.victim(|r| match s.target {
                        FaultTarget::FixedUnits(_) => r.kind.units() > 0,
                        FaultTarget::ProgrPim => r.kind.uses_progr(),
                    });
                    let Some(v) = victim else { break };
                    let rec = lanes.kill(v);
                    resources.release(rec.kind);
                    inflight -= 1;
                    obs.ff_delta(clock.now(), -(rec.kind.units() as isize));
                    let wl = &prepared[rec.wl];
                    let partial = charge_until(&rec.charge, rec.start, clock.now());
                    let outcome = AttemptOutcome::Killed;
                    commit(
                        &mut acc,
                        obs,
                        wl,
                        rec,
                        OpEnd::At(clock.now()),
                        &partial,
                        outcome,
                    );
                    obs.killed(clock.now(), rec.wl, rec.step, rec.op);
                    obs.retried();
                    attempts[rs.instance(rec.wl, rec.step, rec.op)] += 1;
                    rs.insert(rec.wl, rec.step, rec.op);
                }
                quarantine(&mut resources, s.target, obs, clock.now())?;
            }
        }
    }
    let barrier_total: Seconds = prepared
        .iter()
        .map(|wl| STEP_BARRIER * wl.spec.steps as f64)
        .sum();
    // The CPU-side runtime makes one placement decision per op instance
    // (register queries through the Table III APIs); this serial work is
    // not hidden by the pipeline.
    let decisions: Seconds = if planner.cfg.mode == SystemMode::Hetero {
        PLACEMENT_DECISION * total_instances as f64
    } else {
        Seconds::ZERO
    };
    acc.sync_raw += barrier_total + decisions;
    let makespan = clock.now() + barrier_total + decisions;
    obs.barrier(makespan, barrier_total);
    obs.decision(decisions);
    let steps = prepared.iter().map(|w| w.spec.steps).max().unwrap_or(0);
    Ok(acc.into_report(planner, steps, makespan))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, EngineConfig, SystemPreset, WorkloadSpec};
    use pim_common::rng::Xorshift64Star;
    use pim_common::NullTrace;
    use pim_graph::gen::{random_dag, GenSpec};
    use pim_tensor::cost::{CostProfile, OffloadClass};
    use std::collections::BTreeSet;

    /// Every flat instance row locates back to its `(wl, step, op)`, with
    /// workloads that have no steps or no ops among the co-runners.
    #[test]
    fn instance_rows_locate_back_across_empty_workloads() {
        let engine = Engine::new(EngineConfig::preset(SystemPreset::Hetero));
        let graph = random_dag(&GenSpec {
            layers: 3,
            width: 2,
            dim: 8,
            seed: 5,
        });
        let empty = pim_graph::Graph::new();
        let specs: Vec<WorkloadSpec<'_>> = [
            (&graph, 0),
            (&graph, 3),
            (&empty, 4),
            (&graph, 0),
            (&graph, 2),
        ]
        .into_iter()
        .map(|(graph, steps)| WorkloadSpec {
            graph,
            steps,
            cpu_progr_only: false,
        })
        .collect();
        let prepared = engine
            .prepare(&specs, &mut NullTrace, TieBreak::Stable)
            .unwrap();
        let rs = ReadySet::new(&prepared, 2, TieBreak::Stable);
        let mut rows = Vec::new();
        for (w, wl) in prepared.iter().enumerate() {
            for step in 0..wl.spec.steps {
                for op in 0..wl.topo.len() {
                    let row = rs.instance(w, step, op);
                    assert_eq!(rs.locate(row), (w, step, op));
                    rows.push(row);
                }
            }
        }
        assert_eq!(rows, (0..5 * graph.ops().len()).collect::<Vec<_>>());
    }

    /// Independent readiness model: an instance is ready once every
    /// intra-step producer and its own previous-step instance are done.
    struct Reference {
        ready: BTreeSet<Key>,
        done: Vec<Vec<Vec<bool>>>,
        /// Per workload, the lowest step with an instance not yet done.
        min_incomplete: Vec<usize>,
    }

    impl Reference {
        fn dependencies_done(&self, wl: &Prepared<'_>, w: usize, step: usize, op: usize) -> bool {
            let done = &self.done[w];
            wl.deps[op].iter().all(|&d| done[step][d]) && (step == 0 || done[step - 1][op])
        }

        fn complete(&mut self, prepared: &[Prepared<'_>], key: Key) {
            let wl = &prepared[key.wl];
            self.done[key.wl][key.step][key.op] = true;
            let mut released: Vec<(usize, usize)> = wl.consumers[key.op]
                .iter()
                .map(|&c| (key.step, c))
                .collect();
            if key.step + 1 < wl.spec.steps {
                released.push((key.step + 1, key.op));
            }
            for (step, op) in released {
                if self.dependencies_done(wl, key.wl, step, op) {
                    self.ready.insert(Key {
                        step,
                        rank: wl.rank[op],
                        wl: key.wl,
                        op,
                    });
                }
            }
            let done = &self.done[key.wl];
            let min = &mut self.min_incomplete[key.wl];
            while *min < done.len() && !done[*min].contains(&false) {
                *min += 1;
            }
        }

        /// The ready keys inside their own workload's window, in order.
        fn in_window(&self, depth: usize) -> Vec<Key> {
            self.ready
                .iter()
                .filter(|k| k.step < self.min_incomplete[k.wl] + depth)
                .copied()
                .collect()
        }
    }

    /// Drives a `Stable` and a `Priority` ready set, each beside its own
    /// `BTreeSet` reference, through random dispatch, completion and
    /// failed-attempt requeue sequences, with co-run step counts 100x
    /// apart and a co-run of one graph twice, whose keys tie on
    /// `(step, rank)` and differ only in workload. Dispatch pops the head
    /// `first` picks under a random admitted mask, the only removal the
    /// driver makes. A wide graph (128 ops per rank) puts up to ~70
    /// instances in one class queue at once, where the narrow graphs reach
    /// ~14 and the paper's models hold a few. The reference orders unpacked
    /// keys by
    /// `(hash, step, rank, wl)`; at every step the packed class queues are
    /// decoded and checked against it, filtered by each key's own workload
    /// window:
    ///
    /// * (a) each class head is the reference's first in-window key of
    ///   that class in dispatch order, and `first(mask)` is the class of
    ///   the first in-window key whose class the mask admits;
    /// * (b) the class queues hold exactly the in-window key set, each
    ///   sorted in strictly descending dispatch order;
    /// * (c) the ready and window-closed counts;
    /// * (d) a head requeued right after its pop is the head again.
    #[test]
    fn ready_set_heads_match_a_filtered_btree_reference() {
        const DEPTH: usize = 4;
        let engine = Engine::new(EngineConfig::preset(SystemPreset::Hetero));
        // 36, 6, 24 and 256 ops: under spread demands the three-workload
        // co-run has more classes than one mask word holds.
        let graphs: Vec<_> = [(9, 4, 11u64), (3, 2, 23), (6, 4, 37), (2, 128, 41)]
            .iter()
            .map(|&(layers, width, seed)| {
                random_dag(&GenSpec {
                    layers,
                    width,
                    dim: 8,
                    seed,
                })
            })
            .collect();
        // Per run, `(graph, steps)` per workload.
        let runs = [
            &[(0, 200)][..],
            &[(0, 2), (1, 200)],
            &[(0, 200), (1, 2), (2, 20)],
            &[(2, 20), (2, 20)],
            &[(3, 12)],
        ];
        for (run, spread) in runs.iter().flat_map(|r| [(*r, false), (*r, true)]) {
            let steps: Vec<usize> = run.iter().map(|&(_, steps)| steps).collect();
            let specs: Vec<WorkloadSpec<'_>> = run
                .iter()
                .map(|&(g, steps)| WorkloadSpec {
                    graph: &graphs[g],
                    steps,
                    cpu_progr_only: false,
                })
                .collect();
            let mut prepared = engine
                .prepare(&specs, &mut NullTrace, TieBreak::Stable)
                .unwrap();
            // Spread demands: the `g`-th op over all workloads is fully
            // mul/add for even `g`, non-mul/add for odd, and asks for
            // `g / 2 + 1` units, so every op is its own class and the
            // three-workload co-run's 66 classes need two mask words.
            let mut g = 0;
            let spread_costs: Vec<Vec<CostProfile>> = prepared
                .iter()
                .map(|wl| {
                    wl.costs
                        .iter()
                        .map(|c| {
                            g += 1;
                            CostProfile {
                                ff_parallelism: g / 2 + 1,
                                class: if g % 2 == 0 {
                                    OffloadClass::FullyMulAdd
                                } else {
                                    OffloadClass::NonMulAdd
                                },
                                ..*c
                            }
                        })
                        .collect()
                })
                .collect();
            if spread {
                for (wl, costs) in prepared.iter_mut().zip(&spread_costs) {
                    wl.costs = costs;
                }
            }
            let total: usize = prepared
                .iter()
                .map(|wl| wl.spec.steps * wl.topo.len())
                .sum();
            for tie in [TieBreak::Stable, TieBreak::Priority(7)] {
                let mut rs = ReadySet::new(&prepared, DEPTH, tie);
                let classes = rs.classes.len();
                if spread && steps.len() == 3 {
                    assert!(classes > 64, "{classes} classes fit one mask word");
                }
                // Each op's class, looked up by its demand in the class list.
                let class_of: Vec<Vec<usize>> = prepared
                    .iter()
                    .map(|wl| {
                        (0..wl.topo.len())
                            .map(|op| {
                                let demand = DemandClass::of(
                                    &wl.costs[op],
                                    wl.candidates.contains(OpId::new(op)),
                                    wl.spec.cpu_progr_only,
                                );
                                rs.classes
                                    .iter()
                                    .position(|c| c.demand == demand)
                                    .expect("every op has a class")
                            })
                            .collect()
                    })
                    .collect();
                // The reference dispatch order: a stable sort of the
                // in-window keys by seeded hash under `Priority`.
                let order = |k: &Key| match tie {
                    TieBreak::Priority(_) => (
                        tie.decision_hash(&[
                            k.step as u64,
                            k.rank as u64,
                            k.wl as u64,
                            k.op as u64,
                        ]),
                        *k,
                    ),
                    _ => (0, *k),
                };
                // Checks the set against the reference and returns the
                // reference's first in-window key admitted by `mask`.
                let check = |rs: &ReadySet, reference: &Reference, mask: &[u64]| {
                    let expected = reference.in_window(DEPTH);
                    let mut held: Vec<Key> = rs
                        .classes
                        .iter()
                        .flat_map(|c| c.queue.iter().map(|&(_, packed)| rs.key(packed)))
                        .collect();
                    held.sort_unstable();
                    assert_eq!(held, expected, "{tie:?} steps {steps:?}");
                    for class in &rs.classes {
                        assert!(class.queue.windows(2).all(|w| w[0] > w[1]));
                    }
                    assert_eq!(rs.len(), reference.ready.len());
                    assert_eq!(rs.window_closed(), reference.ready.len() - expected.len());
                    let mut heads: Vec<Option<Key>> = vec![None; classes];
                    for key in &expected {
                        let head = &mut heads[class_of[key.wl][key.op]];
                        if head.is_none_or(|h| order(key) < order(&h)) {
                            *head = Some(*key);
                        }
                    }
                    for (c, (class, want)) in rs.classes.iter().zip(&heads).enumerate() {
                        let head = class.queue.last().map(|&(_, packed)| rs.key(packed));
                        assert_eq!(head, *want, "{tie:?} steps {steps:?}");
                        let bit = rs.nonempty[c / 64] >> (c % 64) & 1 == 1;
                        assert_eq!(bit, want.is_some(), "class {c}'s non-empty bit");
                    }
                    let admits = |c: usize| mask[c / 64] >> (c % 64) & 1 == 1;
                    let first = expected
                        .iter()
                        .copied()
                        .filter(|k| admits(class_of[k.wl][k.op]))
                        .min_by_key(order);
                    assert_eq!(rs.first(mask), first.map(|k| class_of[k.wl][k.op]));
                    first
                };
                let mut reference = Reference {
                    ready: BTreeSet::new(),
                    done: prepared
                        .iter()
                        .map(|wl| vec![vec![false; wl.topo.len()]; wl.spec.steps])
                        .collect(),
                    min_incomplete: vec![0; prepared.len()],
                };
                for (w, wl) in prepared.iter().enumerate() {
                    for op in 0..wl.topo.len() {
                        if wl.spec.steps > 0 && reference.dependencies_done(wl, w, 0, op) {
                            reference.ready.insert(Key {
                                step: 0,
                                rank: wl.rank[op],
                                wl: w,
                                op,
                            });
                        }
                    }
                }
                let mut rng = Xorshift64Star::new(steps.len() as u64);
                let (mut inflight, mut completed) = (Vec::new(), 0);
                while completed < total {
                    // A random admitted mask over the classes; every class
                    // one time in four.
                    let all = rng.below(4) == 0;
                    let mask: Vec<u64> = (0..classes.div_ceil(64))
                        .map(|i| {
                            let word = if all { u64::MAX } else { rng.next_u64() };
                            match classes - i * 64 {
                                n if n < 64 => word & ((1 << n) - 1),
                                _ => word,
                            }
                        })
                        .collect();
                    let first = check(&rs, &reference, &mask);
                    if let Some(want) = first.filter(|_| inflight.is_empty() || rng.below(2) == 0) {
                        // Dispatch the first admitted head, as the driver does.
                        let c = rs.first(&mask).expect("an admitted key is ready");
                        assert_eq!(rs.pop(c), Some(want));
                        reference.ready.remove(&want);
                        if rng.below(4) == 0 {
                            // The attempt fails at once: requeue it and pop
                            // it again as its class's head.
                            check(&rs, &reference, &mask);
                            rs.insert(want.wl, want.step, want.op);
                            reference.ready.insert(want);
                            assert_eq!(check(&rs, &reference, &mask), Some(want));
                            assert_eq!(rs.pop(c), Some(want));
                            reference.ready.remove(&want);
                        }
                        inflight.push(want);
                    } else if !inflight.is_empty() {
                        let key: Key = inflight.swap_remove(rng.below(inflight.len()));
                        if rng.below(5) == 0 {
                            rs.insert(key.wl, key.step, key.op);
                            reference.ready.insert(key);
                        } else {
                            rs.complete(&prepared, key.wl, key.step, key.op);
                            reference.complete(&prepared, key);
                            completed += 1;
                        }
                    } else {
                        assert!(!reference.in_window(DEPTH).is_empty(), "{tie:?} wedged");
                    }
                }
                assert_eq!(rs.len(), 0);
                assert!(reference.ready.is_empty());
            }
        }
    }
}
