//! The execution drivers, running over the discrete-event core.
//!
//! Three drivers cover the whole evaluation:
//!
//! * [`run_serialized`] — one op at a time in topological order (the
//!   "without runtime scheduling" configurations),
//! * [`run_scheduled`] — the event-driven operation pipeline (§III-C),
//! * [`run_device_serial`] — a single [`Device`] executing the step stream
//!   back-to-back (the analytic GPU and Neurocube baselines in `pim-sim`).
//!
//! The two engine drivers are generic over a [`FaultPolicy`]: the
//! zero-sized [`NoFaults`](super::faults::NoFaults) compiles every fault
//! hook away, while [`FaultContext`](super::faults::FaultContext) injects
//! the plan's faults and recovers from them. The policy's `FAULTY` constant
//! fixes when an attempt is charged and recorded (see [`FaultPolicy`]).
//!
//! The event-driven driver owns one [`EventHeap`] of [`Event`]s — op
//! completions, retry wakes and permanent strikes — and loops on its
//! earliest `(time, seq)` key; see the [`components`](super::components)
//! module docs for the determinism argument.
//!
//! Its dispatch pass works by *demand class* ([`DemandClass`]): the part
//! of an op that decides whether [`Planner::choose`] can place it at all.
//! The ready set keeps one min-heap per class of the ready instances
//! inside their pipeline window, and parks the rest until their window
//! reaches them. An admission table answers, once per availability
//! signature, which classes fit. The pass pops the first admitted head
//! until nothing fits, so it never visits an op whose class cannot be
//! placed. DESIGN.md §4.9 shows it places exactly what one in-order pass
//! over every ready op would.
//!
//! All drivers account time and energy through the same
//! [`Accumulator`] and build their result exclusively via
//! [`ReportBuilder`], and all emit per-op [`TimelineEntry`] records to a
//! pluggable [`TimelineSink`]. The engine drivers additionally observe
//! execution through an [`Observer`]: counters always, Chrome-trace spans
//! when the run asks for a trace.

use super::components::{Accumulator, Clock, DeviceLanes, Event, EventHeap, InFlight, ResourceSoA};
use super::faults::{backoff_after, charge_until, AttemptOutcome, FaultContext, FaultPolicy};
use super::limits::RunLimits;
use super::observe::{Observer, OpRecord, ResourceClass, TimelineEntry, TimelineSink};
use super::placement::{
    resource_class, Availability, DemandClass, PlanKind, PlannedOp, Planner, PLACEMENT_DECISION,
    SIGNATURES,
};
use super::{Prepared, SystemMode};
use crate::fuzz::TieBreak;
use crate::stats::{ExecutionReport, ReportBuilder};
use crate::sync::STEP_BARRIER;
use pim_common::ids::OpId;
use pim_common::units::{Joules, Seconds};
use pim_common::{PimError, Result};
use pim_hw::device::Device;
use pim_hw::faults::FaultTarget;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;

/// Charges one attempt to the accumulator and records it with the
/// observer: a timeline entry ending at `end`, billed `charge`.
fn commit(
    acc: &mut Accumulator,
    obs: &mut Observer<'_>,
    wl: &Prepared<'_>,
    rec: &InFlight,
    end: Seconds,
    charge: &PlannedOp,
    outcome: AttemptOutcome,
) {
    acc.add(charge);
    obs.record_op(&OpRecord {
        entry: TimelineEntry {
            workload: rec.wl,
            step: rec.step,
            op: rec.op,
            start: rec.start,
            end,
            resource: resource_class(&rec.charge),
            ff_units: rec.units,
            attempt: rec.attempt,
            outcome,
        },
        planned: charge,
        kind: rec.kind,
        cost: &wl.costs[rec.op],
        graph: wl.spec.graph,
        candidate: rec.candidate,
        inflight: rec.inflight_at_dispatch,
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
pub(crate) fn run_serialized<P: FaultPolicy>(
    planner: &Planner,
    prepared: &[Prepared<'_>],
    obs: &mut Observer<'_>,
    policy: &P,
    limits: &RunLimits,
) -> Result<ExecutionReport> {
    let mut acc = Accumulator::default();
    let mut clock = Clock::new();
    let mut gauge = limits.gauge();
    let ff_units = planner.cfg.ff_units;
    // One op runs at a time and holds nothing in the ledger, which only
    // tracks quarantine here: its availability is everything alive.
    let mut resources = resources_at_start(planner, policy, obs)?;
    let strikes = policy.strikes();
    let mut next_strike = 0usize;
    for (w, wl) in prepared.iter().enumerate() {
        // With everything free, placement is availability-independent:
        // choose and plan once per op and reuse the plan across steps and
        // attempts while nothing is quarantined (both are pure, so the
        // replayed numbers are bit-identical).
        let plans: Vec<(PlanKind, PlannedOp, bool)> = wl
            .topo
            .iter()
            .map(|&op| {
                let cost = &wl.costs[op];
                let is_candidate = wl.candidates.contains(OpId::new(op));
                let kind = planner
                    .choose(
                        cost,
                        is_candidate,
                        wl.spec.cpu_progr_only,
                        Availability::all_free(ff_units),
                    )
                    .ok_or_else(|| PimError::internal("serialized placement found no device"))?;
                Ok((kind, planner.plan_cost(kind, cost), is_candidate))
            })
            .collect::<Result<_>>()?;
        for step in 0..wl.spec.steps {
            for (i, &op) in wl.topo.iter().enumerate() {
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
                    let (kind, planned, candidate) = match P::FAULTY
                        .then(|| resources.availability())
                    {
                        Some(avail) if (avail.ff_alive, avail.progr_alive) != (ff_units, true) => {
                            let candidate = plans[i].2;
                            let cost = &wl.costs[op];
                            let kind = planner
                                .choose(cost, candidate, wl.spec.cpu_progr_only, avail)
                                .ok_or_else(|| {
                                    PimError::internal("serialized placement found no device")
                                })?;
                            (kind, planner.plan_cost(kind, cost), candidate)
                        }
                        _ => plans[i],
                    };
                    let start = clock.now();
                    let (mut charge, mut outcome) =
                        policy.attempt(planned, (w, step, op), attempt, start);
                    let mut end = start + charge.duration;
                    // A strike landing inside the attempt kills it at the
                    // strike instant when it takes the resources under it.
                    while let Some(s) = strikes.get(next_strike).copied() {
                        if s.at >= end {
                            break;
                        }
                        let idle = match s.target {
                            FaultTarget::FixedUnits(_) => {
                                resources.alive_ff().saturating_sub(charge.ff_units)
                            }
                            FaultTarget::ProgrPim => 0,
                        };
                        let kills = FaultContext::strike_kills(
                            s.target,
                            charge.ff_units,
                            charge.uses_progr,
                            idle,
                        );
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
                        units: charge.ff_units,
                        attempt,
                        outcome,
                        start,
                        inflight_at_dispatch: 1,
                        candidate,
                        live: true,
                    };
                    commit(&mut acc, obs, wl, &rec, end, &charge, outcome);
                    if charge.ff_units > 0 {
                        obs.ff_delta(start, charge.ff_units as isize);
                    }
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
                    gauge.tick(clock.now())?;
                    if charge.ff_units > 0 {
                        obs.ff_delta(clock.now(), -(charge.ff_units as isize));
                    }
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

/// Priority key of a ready instance: step first (pipeline order), then
/// topological rank, then workload. `rank` is unique within a workload, so
/// `(step, rank, wl)` is already a total order and `op` (the workload's
/// `topo[rank]`) rides along for the dispatcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    step: usize,
    rank: usize,
    wl: usize,
    op: usize,
}

impl Key {
    /// `(step, rank, wl)` packed into one integer with the same order.
    /// `ReadySet::new` checks that ranks and workload indices fit 32 bits.
    fn packed(&self) -> u128 {
        (self.step as u128) << 64 | (self.rank as u128) << 32 | self.wl as u128
    }
}

/// A key's place in the dispatch order: the tie-break hash, then the
/// packed key. The hash is zero except under [`TieBreak::Priority`], which
/// dispatches by seeded hash and breaks hash ties in [`Key`] order.
type Order = (u64, u128);

fn dispatch_order(tie: TieBreak, key: &Key) -> Order {
    let hash = match tie {
        TieBreak::Stable | TieBreak::Permuted(_) => 0,
        TieBreak::Priority(_) => tie.decision_hash(&[
            key.step as u64,
            key.rank as u64,
            key.wl as u64,
            key.op as u64,
        ]),
    };
    (hash, key.packed())
}

/// The ready instances of one demand class that lie inside their own
/// workload's pipeline window, as a min-heap in dispatch order.
struct Class {
    demand: DemandClass,
    /// A member `(wl, op)` whose placeability stands for the class's.
    rep: (usize, usize),
    heap: BinaryHeap<Reverse<(Order, Key)>>,
}

/// Dependency/readiness bookkeeping of the scheduled driver.
///
/// Each demand class keeps its in-window ready keys in a min-heap, so its
/// head is its first in-window key in dispatch order. A ready key past
/// its workload's window end is parked until the window reaches its step.
/// The dispatch pass asks which classes fit the current availability and
/// pops the first head among them, so it never visits a key whose class
/// cannot be placed.
struct ReadySet {
    /// Per-instance remaining dependency counts.
    remaining: Vec<Vec<Vec<usize>>>,
    step_left: Vec<Vec<usize>>,
    /// Pipeline depth: how many steps past its lowest incomplete one a
    /// workload may dispatch from.
    depth: usize,
    /// Per workload, the open pipeline window: from the lowest step with
    /// an incomplete instance (no ready instance lies below it) through
    /// `depth` steps, clipped to the workload's step count.
    windows: Vec<Range<usize>>,
    tie: TieBreak,
    /// Per workload and op, its demand class.
    class_of: Vec<Vec<usize>>,
    classes: Vec<Class>,
    /// Per workload and step, the ready keys past the window's end.
    parked: Vec<Vec<Vec<Key>>>,
    /// Keys in `parked`.
    closed: usize,
}

impl ReadySet {
    fn new(prepared: &[Prepared<'_>], depth: usize, tie: TieBreak) -> Self {
        let remaining: Vec<Vec<Vec<usize>>> = prepared
            .iter()
            .map(|wl| {
                (0..wl.spec.steps)
                    .map(|step| {
                        wl.deps
                            .iter()
                            .map(|d| d.len() + usize::from(step > 0))
                            .collect()
                    })
                    .collect()
            })
            .collect();
        let step_left: Vec<Vec<usize>> = prepared
            .iter()
            .map(|wl| vec![wl.topo.len(); wl.spec.steps])
            .collect();
        let max_ops = prepared.iter().map(|wl| wl.topo.len()).max().unwrap_or(0);
        assert!(
            u32::try_from(max_ops).is_ok() && u32::try_from(prepared.len()).is_ok(),
            "ranks and workload indices must fit a packed key"
        );
        let mut classes: Vec<Class> = Vec::new();
        let class_of = prepared
            .iter()
            .enumerate()
            .map(|(w, wl)| {
                (0..wl.topo.len())
                    .map(|op| {
                        let demand = DemandClass::of(
                            &wl.costs[op],
                            wl.candidates.contains(OpId::new(op)),
                            wl.spec.cpu_progr_only,
                        );
                        classes
                            .iter()
                            .position(|class| class.demand == demand)
                            .unwrap_or_else(|| {
                                classes.push(Class {
                                    demand,
                                    rep: (w, op),
                                    heap: BinaryHeap::new(),
                                });
                                classes.len() - 1
                            })
                    })
                    .collect()
            })
            .collect();
        let mut rs = ReadySet {
            remaining,
            step_left,
            depth,
            windows: prepared
                .iter()
                .map(|wl| 0..depth.min(wl.spec.steps))
                .collect(),
            tie,
            class_of,
            classes,
            parked: prepared
                .iter()
                .map(|wl| vec![Vec::new(); wl.spec.steps])
                .collect(),
            closed: 0,
        };
        for (w, wl) in prepared.iter().enumerate() {
            for (op, deps) in wl.deps.iter().enumerate() {
                if deps.is_empty() && wl.spec.steps > 0 {
                    rs.insert(Key {
                        step: 0,
                        rank: wl.rank[op],
                        wl: w,
                        op,
                    });
                }
            }
        }
        rs
    }

    fn insert(&mut self, key: Key) {
        if key.step < self.windows[key.wl].end {
            let order = dispatch_order(self.tie, &key);
            let class = self.class_of[key.wl][key.op];
            self.classes[class].heap.push(Reverse((order, key)));
        } else {
            self.parked[key.wl][key.step].push(key);
            self.closed += 1;
        }
    }

    /// Makes `(wl, step, op)` ready again after a failed attempt.
    fn requeue(&mut self, prepared: &[Prepared<'_>], wl: usize, step: usize, op: usize) {
        self.insert(Key {
            step,
            rank: prepared[wl].rank[op],
            wl,
            op,
        });
    }

    /// Ready instances, in or out of their pipeline window.
    fn len(&self) -> usize {
        self.closed + self.classes.iter().map(|c| c.heap.len()).sum::<usize>()
    }

    /// Ready instances outside their own workload's pipeline window.
    fn window_closed(&self) -> usize {
        self.closed
    }

    /// Releases the dependents of a completed instance and advances the
    /// per-workload pipeline-window bookkeeping.
    fn complete(&mut self, prepared: &[Prepared<'_>], w: usize, step: usize, op: usize) {
        let wl = &prepared[w];
        // Intra-step consumers.
        for &c in &wl.consumers[op] {
            let r = &mut self.remaining[w][step][c];
            *r -= 1;
            if *r == 0 {
                self.insert(Key {
                    step,
                    rank: wl.rank[c],
                    wl: w,
                    op: c,
                });
            }
        }
        // Cross-step successor: the same op in the next step.
        if step + 1 < wl.spec.steps {
            let r = &mut self.remaining[w][step + 1][op];
            *r -= 1;
            if *r == 0 {
                self.insert(Key {
                    step: step + 1,
                    rank: wl.rank[op],
                    wl: w,
                    op,
                });
            }
        }
        // Step-completion bookkeeping for the pipeline window.
        self.step_left[w][step] -= 1;
        let win = &mut self.windows[w];
        if win.start == step && self.step_left[w][step] == 0 {
            while win.start < wl.spec.steps && self.step_left[w][win.start] == 0 {
                win.start += 1;
            }
            let old_end = win.end;
            win.end = (win.start + self.depth).min(wl.spec.steps);
            // The window only grows upward (no ready key lies below its
            // start), so the keys it admits are exactly the parked ones.
            for s in old_end..self.windows[w].end {
                for key in std::mem::take(&mut self.parked[w][s]) {
                    self.closed -= 1;
                    self.insert(key);
                }
            }
        }
    }

    /// The class whose head comes first in dispatch order among the
    /// classes whose bit is set in `admitted`.
    fn first(&self, admitted: &[u64]) -> Option<usize> {
        let mut best: Option<(Order, usize)> = None;
        for (i, &admit) in admitted.iter().enumerate() {
            for b in ones(admit) {
                let c = i * 64 + b;
                if let Some(Reverse((order, _))) = self.classes[c].heap.peek() {
                    if best.is_none_or(|(first, _)| *order < first) {
                        best = Some((*order, c));
                    }
                }
            }
        }
        best.map(|(_, c)| c)
    }

    /// Takes class `c`'s head: the only way a key leaves the set.
    fn pop(&mut self, c: usize) -> Option<Key> {
        self.classes[c].heap.pop().map(|Reverse((_, key))| key)
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
    fn mask(
        &mut self,
        planner: &Planner,
        prepared: &[Prepared<'_>],
        rs: &ReadySet,
        avail: Availability,
    ) -> &[u64] {
        if (avail.ff_alive, avail.progr_alive) != self.alive {
            self.alive = (avail.ff_alive, avail.progr_alive);
            self.filled.fill(false);
        }
        let sig = avail.signature();
        let mask = &mut self.masks[sig * self.words..(sig + 1) * self.words];
        if !self.filled[sig] {
            self.filled[sig] = true;
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
        mask
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
    // Attempt counter per instance (indexed step * ops + op). A fault-free
    // attempt is always the first, so only a faulted run needs the table.
    let mut attempts: Vec<Vec<u32>> = if P::FAULTY {
        prepared
            .iter()
            .map(|wl| vec![0u32; wl.spec.steps * wl.deps.len()])
            .collect()
    } else {
        Vec::new()
    };

    let mut resources = resources_at_start(planner, policy, obs)?;
    let mut lanes = DeviceLanes::new();
    let mut events: EventHeap<Event> = EventHeap::new();
    // One sequence counter keys every event, drawn in program order:
    // strikes first, then one per dispatch and one per transient retry.
    let mut pushed = 0u64;
    let mut next_seq = move || {
        pushed += 1;
        tie.event_key(pushed - 1)
    };

    for (i, s) in policy.strikes().iter().enumerate() {
        events.push(s.at, Event::Strike(i), next_seq());
    }

    let mut clock = Clock::new();
    let mut acc = Accumulator::default();
    let total_instances: usize = prepared
        .iter()
        .map(|wl| wl.spec.steps * wl.topo.len())
        .sum();
    let mut completed = 0usize;
    let mut inflight = 0usize;
    // The last placement of each (workload, op): `plan_cost` is pure, so
    // a repeat of the same kind reuses it.
    let mut plans: Vec<Vec<Option<(PlanKind, PlannedOp)>>> = prepared
        .iter()
        .map(|wl| vec![None; wl.topo.len()])
        .collect();

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
            let planned = match plans[key.wl][key.op] {
                Some((memo, planned)) if memo == kind => planned,
                _ => {
                    let planned = planner.plan_cost(kind, cost);
                    plans[key.wl][key.op] = Some((kind, planned));
                    planned
                }
            };
            let attempt = if P::FAULTY {
                attempts[key.wl][key.step * wl.deps.len() + key.op]
            } else {
                0
            };
            let (charge, outcome) =
                policy.attempt(planned, (key.wl, key.step, key.op), attempt, clock.now());
            let units = resources.acquire(kind, &charge)?;
            inflight += 1;
            let slot = lanes.park(InFlight {
                wl: key.wl,
                step: key.step,
                op: key.op,
                kind,
                charge,
                units,
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
                // event heap uses, so timeline intervals match the actual
                // resource hold times exactly.
                let end = Clock::from_fs(end_fs);
                commit(&mut acc, obs, wl, lanes.get(slot), end, &charge, outcome);
            }
            if units > 0 {
                obs.ff_delta(clock.now(), units as isize);
            }
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
        // default this is a counter increment plus two never-true
        // compares.
        gauge.tick(clock.now())?;
        match event {
            Event::Op(slot) => {
                // `None`: a strike killed the attempt and accounted it.
                let Some(rec) = lanes.retire(slot) else {
                    continue;
                };
                resources.release(rec.units, rec.charge.uses_cpu, rec.charge.uses_progr);
                inflight -= 1;
                if rec.units > 0 {
                    obs.ff_delta(clock.now(), -(rec.units as isize));
                }
                let wl = &prepared[rec.wl];
                if P::FAULTY {
                    commit(
                        &mut acc,
                        obs,
                        wl,
                        rec,
                        clock.now(),
                        &rec.charge,
                        rec.outcome,
                    );
                }
                let instance = rec.step * wl.deps.len() + rec.op;
                match rec.outcome {
                    AttemptOutcome::Completed => {
                        completed += 1;
                        obs.completed();
                        rs.complete(prepared, rec.wl, rec.step, rec.op);
                    }
                    AttemptOutcome::Transient => {
                        obs.fault(clock.now(), "transient", rec.wl, rec.step, rec.op);
                        obs.retried();
                        attempts[rec.wl][instance] += 1;
                        let retry = Event::Retry {
                            wl: rec.wl,
                            step: rec.step,
                            op: rec.op,
                        };
                        events.push(clock.now() + backoff_after(rec.attempt), retry, next_seq());
                    }
                    AttemptOutcome::TimedOut => {
                        obs.fault(clock.now(), "timed-out", rec.wl, rec.step, rec.op);
                        obs.redispatched();
                        attempts[rec.wl][instance] += 1;
                        rs.requeue(prepared, rec.wl, rec.step, rec.op);
                    }
                    AttemptOutcome::Killed => {
                        unreachable!("live in-flight records never carry Killed")
                    }
                }
            }
            Event::Retry { wl, step, op } => rs.requeue(prepared, wl, step, op),
            Event::Strike(i) => {
                let s = policy.strikes()[i];
                let lost = match s.target {
                    FaultTarget::FixedUnits(n) => n.min(resources.alive_ff()),
                    FaultTarget::ProgrPim => 0,
                };
                // Kill the in-flight attempts the strike lands on, earliest
                // dispatch first, until the lost resources are idle.
                loop {
                    let need_kill = match s.target {
                        FaultTarget::FixedUnits(_) => resources.free_ff() < lost,
                        FaultTarget::ProgrPim => lanes.any_live(|r| r.charge.uses_progr),
                    };
                    if !need_kill {
                        break;
                    }
                    let victim = lanes.victim(|r| match s.target {
                        FaultTarget::FixedUnits(_) => r.units > 0,
                        FaultTarget::ProgrPim => r.charge.uses_progr,
                    });
                    let Some(v) = victim else { break };
                    let rec = lanes.kill(v);
                    resources.release(rec.units, rec.charge.uses_cpu, rec.charge.uses_progr);
                    inflight -= 1;
                    if rec.units > 0 {
                        obs.ff_delta(clock.now(), -(rec.units as isize));
                    }
                    let wl = &prepared[rec.wl];
                    let partial = charge_until(&rec.charge, rec.start, clock.now());
                    let outcome = AttemptOutcome::Killed;
                    commit(&mut acc, obs, wl, rec, clock.now(), &partial, outcome);
                    obs.killed(clock.now(), rec.wl, rec.step, rec.op);
                    obs.retried();
                    attempts[rec.wl][rec.step * wl.deps.len() + rec.op] += 1;
                    rs.requeue(prepared, rec.wl, rec.step, rec.op);
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

/// One standalone device executing a step stream back-to-back — the
/// analytic baselines (GPU, Neurocube) driven through the same event core
/// and report path as the engine configurations.
pub struct DeviceRun<'a> {
    /// Configuration name for the report.
    pub system: &'a str,
    /// The device executing every op.
    pub device: &'a dyn Device,
    /// Per-op cost profiles in execution order.
    pub costs: &'a [pim_tensor::cost::CostProfile],
    /// Training steps.
    pub steps: usize,
    /// Extra data-movement time appended to each step (e.g. the GPU's
    /// unhidden PCIe staging and working-set spill).
    pub step_epilogue_dm: Seconds,
    /// Extra energy charged per step (e.g. PCIe transfer energy).
    pub step_epilogue_energy: Joules,
}

/// Runs one device serially over `steps` repetitions of its op stream.
///
/// Per op: `op = compute time`, `dm = memory-bound excess`,
/// `sync = dispatch`, with the device's own estimate deciding each split;
/// the step epilogue is accounted as data movement. Host idle power is
/// always charged — a standalone accelerator leaves the host package
/// powered but out of the compute path.
pub fn run_device_serial(run: &DeviceRun<'_>, sink: &mut dyn TimelineSink) -> ExecutionReport {
    let mut clock = Clock::new();
    let mut op_raw = Seconds::ZERO;
    let mut dm_raw = Seconds::ZERO;
    let mut sync_raw = Seconds::ZERO;
    let mut energy = Joules::ZERO;
    for step in 0..run.steps {
        for (op, cost) in run.costs.iter().enumerate() {
            debug_assert!(run.device.accepts(cost), "device rejects op {op}");
            let est = run.device.estimate(cost);
            let busy = est.compute_time.max(est.memory_time);
            let duration = busy + est.dispatch_time;
            op_raw += est.compute_time;
            dm_raw += busy - est.compute_time;
            sync_raw += est.dispatch_time;
            energy += est.energy;
            sink.record(TimelineEntry {
                workload: 0,
                step,
                op,
                start: clock.now(),
                end: clock.now() + duration,
                resource: ResourceClass::Baseline,
                ff_units: 0,
                attempt: 0,
                outcome: AttemptOutcome::Completed,
            });
            clock.advance(duration);
        }
        clock.advance(run.step_epilogue_dm);
        dm_raw += run.step_epilogue_dm;
        energy += run.step_epilogue_energy;
    }
    let makespan = clock.now();
    ReportBuilder::new(run.system, run.steps)
        .makespan(makespan)
        .raw_parts(op_raw, dm_raw, sync_raw)
        .device_energy(energy)
        .charge_host_idle()
        .device_busy(run.device.name(), makespan)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, EngineConfig, SystemPreset, VecSink, WorkloadSpec};
    use pim_common::units::Bytes;
    use pim_common::NullTrace;
    use pim_graph::gen::{random_dag, GenSpec, XorShiftRng};
    use pim_hw::cpu::CpuDevice;
    use pim_tensor::cost::{CostProfile, OffloadClass};
    use std::collections::BTreeSet;

    #[test]
    fn device_serial_run_traces_and_balances() {
        let cpu = CpuDevice::xeon_e5_2630_v3();
        let costs = vec![
            CostProfile::compute(
                1e9,
                1e9,
                0.0,
                Bytes::new(1e7),
                Bytes::new(1e7),
                OffloadClass::FullyMulAdd,
                64,
            );
            3
        ];
        let run = DeviceRun {
            system: "test-baseline",
            device: &cpu,
            costs: &costs,
            steps: 2,
            step_epilogue_dm: Seconds::new(1e-3),
            step_epilogue_energy: Joules::new(0.5),
        };
        let mut sink = VecSink::default();
        let report = run_device_serial(&run, &mut sink);
        let timeline = sink.into_entries();
        assert_eq!(timeline.len(), 6);
        assert!(timeline
            .iter()
            .all(|e| e.resource == ResourceClass::Baseline));
        // Contiguous, non-overlapping execution within each step.
        for pair in timeline.windows(2) {
            assert!(pair[1].start >= pair[0].end);
        }
        assert!(report.is_well_formed());
        // The per-step epilogue is billed as data movement.
        assert!(report.data_movement_time >= Seconds::new(2e-3));
        assert_eq!(report.device_busy[cpu.params().name], report.makespan);
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
    /// apart. Dispatch pops the head `first` picks under a random admitted
    /// mask, the only removal the driver makes. At every step the set is
    /// checked against the reference filtered by each key's own workload
    /// window:
    ///
    /// * (a) each class head is the reference's first in-window key of
    ///   that class in dispatch order, and `first(mask)` is the class of
    ///   the first in-window key whose class the mask admits;
    /// * (b) the class heaps hold exactly the in-window key set;
    /// * (c) the ready and window-closed counts;
    /// * (d) a head requeued right after its pop is the head again.
    #[test]
    fn ready_set_heads_match_a_filtered_btree_reference() {
        const DEPTH: usize = 4;
        let engine = Engine::new(EngineConfig::preset(SystemPreset::Hetero));
        // 36, 6 and 24 ops: under spread demands the three-workload
        // co-run has more classes than one mask word holds.
        let graphs: Vec<_> = [(9, 4, 11u64), (3, 2, 23), (6, 4, 37)]
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
        let runs = [&[200][..], &[2, 200], &[200, 2, 20]];
        for (steps, spread) in runs.iter().flat_map(|s| [(*s, false), (*s, true)]) {
            let specs: Vec<WorkloadSpec<'_>> = steps
                .iter()
                .zip(&graphs)
                .map(|(&steps, graph)| WorkloadSpec {
                    graph,
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
                        .flat_map(|c| c.heap.iter().map(|&Reverse((_, key))| key))
                        .collect();
                    held.sort_unstable();
                    assert_eq!(held, expected, "{tie:?} steps {steps:?}");
                    assert_eq!(rs.len(), reference.ready.len());
                    assert_eq!(rs.window_closed(), reference.ready.len() - expected.len());
                    let mut heads: Vec<Option<Key>> = vec![None; classes];
                    for key in &expected {
                        let head = &mut heads[class_of[key.wl][key.op]];
                        if head.is_none_or(|h| order(key) < order(&h)) {
                            *head = Some(*key);
                        }
                    }
                    for (class, want) in rs.classes.iter().zip(&heads) {
                        assert_eq!(class.heap.peek().map(|&Reverse((_, key))| key), *want);
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
                let mut rng = XorShiftRng::new(steps.len() as u64);
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
                            rs.requeue(&prepared, want.wl, want.step, want.op);
                            reference.ready.insert(want);
                            assert_eq!(check(&rs, &reference, &mask), Some(want));
                            assert_eq!(rs.pop(c), Some(want));
                            reference.ready.remove(&want);
                        }
                        inflight.push(want);
                    } else if !inflight.is_empty() {
                        let key: Key = inflight.swap_remove(rng.below(inflight.len()));
                        if rng.below(5) == 0 {
                            rs.requeue(&prepared, key.wl, key.step, key.op);
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
