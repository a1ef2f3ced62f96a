//! The execution drivers, running over the component event core.
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
//! The event-driven driver registers its state — device lanes, the
//! link/sync model, the resource pool, the observer — as components in a
//! [`ComponentSlab`] and loops on `earliest()`/`advance()`; see the
//! [`components`](super::components) module docs for the determinism
//! argument. All drivers account time and energy through the same
//! [`Accumulator`] and build their result exclusively via
//! [`ReportBuilder`], and all emit per-op [`TimelineEntry`] records to a
//! pluggable [`TimelineSink`]. The engine drivers additionally observe
//! execution through an [`Observer`]: counters always, Chrome-trace spans
//! when the `trace` feature is on.

use super::components::{
    Accumulator, Clock, Comp, ComponentSlab, DeviceLanes, InFlight, ResourceSoA, Retired, SyncLink,
};
use super::faults::{backoff_after, charge_until, AttemptOutcome, FaultContext, FaultPolicy};
use super::limits::RunLimits;
use super::observe::{Observer, OpRecord, ResourceClass, TimelineEntry, TimelineSink};
use super::placement::{
    resource_class, Availability, PlanKind, PlannedOp, Planner, PLACEMENT_DECISION,
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
        name: wl.spec.graph.ops()[rec.op].kind.tf_name(),
        candidate: rec.candidate,
        inflight: rec.inflight_at_dispatch,
    });
}

/// Applies one permanent strike to the serialized driver's alive-state.
fn apply_strike_serial(
    target: FaultTarget,
    ff_alive: &mut usize,
    progr_alive: &mut bool,
    obs: &mut Observer<'_>,
    at: Seconds,
) {
    match target {
        FaultTarget::FixedUnits(n) => {
            let n = n.min(*ff_alive);
            *ff_alive -= n;
            obs.quarantine(at, "ff units", n);
        }
        FaultTarget::ProgrPim => {
            *progr_alive = false;
            obs.quarantine(at, "progr pim", 1);
        }
    }
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
    let mut ff_alive = ff_units - policy.initial_ff();
    let mut progr_alive = !policy.initial_progr_dead();
    if policy.initial_ff() > 0 {
        obs.quarantine(clock.now(), "ff units", policy.initial_ff());
    }
    if policy.initial_progr_dead() {
        obs.quarantine(clock.now(), "progr pim", 1);
    }
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
                        apply_strike_serial(s.target, &mut ff_alive, &mut progr_alive, obs, s.at);
                        next_strike += 1;
                    }
                    let (kind, planned, candidate) =
                        if !P::FAULTY || (ff_alive == ff_units && progr_alive) {
                            plans[i]
                        } else {
                            let candidate = plans[i].2;
                            let avail = Availability {
                                cpu_free: true,
                                progr_free: progr_alive,
                                ff_free: ff_alive,
                                ff_alive,
                                progr_alive,
                            };
                            let cost = &wl.costs[op];
                            let kind = planner
                                .choose(cost, candidate, wl.spec.cpu_progr_only, avail)
                                .ok_or_else(|| {
                                    PimError::internal("serialized placement found no device")
                                })?;
                            (kind, planner.plan_cost(kind, cost), candidate)
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
                            FaultTarget::FixedUnits(_) => ff_alive.saturating_sub(charge.ff_units),
                            FaultTarget::ProgrPim => 0,
                        };
                        let kills = FaultContext::strike_kills(
                            s.target,
                            charge.ff_units,
                            charge.uses_progr,
                            idle,
                        );
                        apply_strike_serial(s.target, &mut ff_alive, &mut progr_alive, obs, s.at);
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
                    // One "event" per attempt: this driver has no next-tick
                    // merge, so the budget check rides the serial loop
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

/// Dependency/readiness bookkeeping of the scheduled driver.
///
/// The ready set is one bitset per step over the slots
/// `rank * workloads + wl`, so ascending bit order within a step is
/// `(rank, wl)` order and a scan over ascending steps yields keys in
/// [`Key`] order without sorting. The dispatch scan visits only steps
/// inside some workload's open pipeline window and skips steps with no
/// ready key in such a window, so co-run workloads whose windows lie far
/// apart cost nothing for the steps between them.
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
    /// The union of `windows` as disjoint ranges in ascending order: the
    /// only steps a scan visits.
    open_steps: Vec<Range<usize>>,
    /// Workload count: the slot stride of one rank.
    workloads: usize,
    /// Words per step in `bits`.
    stride: usize,
    /// Ready bits: step `s`, slot `i` is bit `i % 64` of word
    /// `s * stride + i / 64`.
    bits: Vec<u64>,
    /// Words per step in `occupied`.
    occupied_stride: usize,
    /// Which `bits` words are non-zero: step `s`, word `j` is bit `j % 64`
    /// of word `s * occupied_stride + j / 64`, so a scan skips empty words
    /// without reading them.
    occupied: Vec<u64>,
    /// Per-(workload, step) census of the ready set, kept in lockstep with
    /// every insert/remove so the scan can skip empty steps and the stall
    /// accounting can count window-closed instances without walking the
    /// set.
    ready_counts: Vec<Vec<usize>>,
    /// Ready instances per workload.
    ready_total: Vec<usize>,
}

impl ReadySet {
    fn new(prepared: &[Prepared<'_>], depth: usize) -> Self {
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
        let workloads = prepared.len();
        let max_ops = prepared.iter().map(|wl| wl.topo.len()).max().unwrap_or(0);
        let max_steps = prepared.iter().map(|wl| wl.spec.steps).max().unwrap_or(0);
        let stride = (max_ops * workloads).div_ceil(64);
        let occupied_stride = stride.div_ceil(64);
        let mut rs = ReadySet {
            remaining,
            step_left,
            depth,
            windows: prepared
                .iter()
                .map(|wl| 0..depth.min(wl.spec.steps))
                .collect(),
            open_steps: Vec::new(),
            workloads,
            stride,
            bits: vec![0; max_steps * stride],
            occupied_stride,
            occupied: vec![0; max_steps * occupied_stride],
            ready_counts: prepared
                .iter()
                .map(|wl| vec![0usize; wl.spec.steps])
                .collect(),
            ready_total: vec![0; workloads],
        };
        rs.merge_windows();
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

    /// Recomputes `open_steps` after a window moved.
    fn merge_windows(&mut self) {
        let mut windows: Vec<Range<usize>> = self
            .windows
            .iter()
            .filter(|win| !win.is_empty())
            .cloned()
            .collect();
        windows.sort_unstable_by_key(|win| win.start);
        self.open_steps.clear();
        for win in windows {
            match self.open_steps.last_mut() {
                Some(last) if win.start <= last.end => last.end = last.end.max(win.end),
                _ => self.open_steps.push(win),
            }
        }
    }

    /// `key`'s ready bit: the index of its word in `bits`, the index of
    /// that word's bit in `occupied`, and the mask within the word.
    fn bit(&self, key: &Key) -> (usize, usize, u64) {
        let slot = key.rank * self.workloads + key.wl;
        let j = slot / 64;
        (
            key.step * self.stride + j,
            key.step * self.occupied_stride * 64 + j,
            1 << (slot % 64),
        )
    }

    fn insert(&mut self, key: Key) {
        let (word, summary, mask) = self.bit(&key);
        self.bits[word] |= mask;
        self.occupied[summary / 64] |= 1 << (summary % 64);
        self.ready_counts[key.wl][key.step] += 1;
        self.ready_total[key.wl] += 1;
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

    fn remove(&mut self, key: &Key) {
        let (word, summary, mask) = self.bit(key);
        self.bits[word] &= !mask;
        if self.bits[word] == 0 {
            self.occupied[summary / 64] &= !(1 << (summary % 64));
        }
        self.ready_counts[key.wl][key.step] -= 1;
        self.ready_total[key.wl] -= 1;
    }

    /// Ready instances, in or out of their pipeline window.
    fn len(&self) -> usize {
        self.ready_total.iter().sum()
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
        if win.start == step {
            while win.start < wl.spec.steps && self.step_left[w][win.start] == 0 {
                win.start += 1;
            }
            win.end = (win.start + self.depth).min(wl.spec.steps);
            self.merge_windows();
        }
    }

    /// Ready instances outside their own workload's pipeline window.
    fn window_closed(&self) -> usize {
        (0..self.workloads)
            .map(|w| {
                let open: usize = self.ready_counts[w][self.windows[w].clone()].iter().sum();
                self.ready_total[w] - open
            })
            .sum()
    }

    /// Collects into `out`, in [`Key`] order, every ready instance inside
    /// its own workload's pipeline window.
    fn scan(&self, prepared: &[Prepared<'_>], out: &mut Vec<Key>) {
        out.clear();
        for span in &self.open_steps {
            for s in span.clone() {
                let open = |w: usize| self.windows[w].contains(&s);
                if !(0..self.workloads).any(|w| open(w) && self.ready_counts[w][s] > 0) {
                    continue;
                }
                let occupied =
                    &self.occupied[s * self.occupied_stride..(s + 1) * self.occupied_stride];
                let bits = &self.bits[s * self.stride..(s + 1) * self.stride];
                for (k, &summary) in occupied.iter().enumerate() {
                    for jb in ones(summary) {
                        let j = k * 64 + jb;
                        for b in ones(bits[j]) {
                            let slot = j * 64 + b;
                            // A lone workload's slot is its rank: skip the
                            // divide.
                            let (rank, wl) = if self.workloads == 1 {
                                (slot, 0)
                            } else {
                                (slot / self.workloads, slot % self.workloads)
                            };
                            if open(wl) {
                                out.push(Key {
                                    step: s,
                                    rank,
                                    wl,
                                    op: prepared[wl].topo[rank],
                                });
                            }
                        }
                    }
                }
            }
        }
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

/// Applies the tie-break policy to one dispatch scan.
///
/// [`TieBreak::Stable`] and [`TieBreak::Permuted`] are no-ops: the scan
/// keeps the ready set's `(step, rank, wl)` order. The scan order is
/// schedule-*significant*, not incidental — `rank` is the op's
/// topological position, unique within one workload, but two co-run
/// workloads can have ready ops at the same `(step, rank)`, and
/// whichever the scan reaches first wins the contended device. The first
/// full-surface fuzz confirmed that order matters, so it stays pinned
/// and its determinism is audited by stable-rerun comparison instead
/// (see `crate::fuzz`). [`TieBreak::Priority`] re-sorts the whole scan by
/// seeded hash: the scan holds only in-window keys and the Fig. 7
/// registers still gate every placement, so any order is legal, but the
/// schedule changes — that freedom is the search space of
/// [`crate::search`].
fn order_scan(tie: TieBreak, scan: &mut [Key]) {
    match tie {
        TieBreak::Stable | TieBreak::Permuted(_) => {}
        TieBreak::Priority(_) => scan.sort_by_key(|k| {
            tie.decision_hash(&[k.step as u64, k.rank as u64, k.wl as u64, k.op as u64])
        }),
    }
}

/// Event-driven execution with the operation pipeline. Under a fault plan
/// an attempt's fate is decided at dispatch, a failed attempt re-enters
/// the ready set (after its backoff, for transients), and permanent
/// strikes are delivered by the link/sync component as events that kill
/// the in-flight attempts under them.
pub(crate) fn run_scheduled<P: FaultPolicy>(
    planner: &Planner,
    prepared: &[Prepared<'_>],
    obs: &mut Observer<'_>,
    policy: &P,
    tie: TieBreak,
    limits: &RunLimits,
) -> Result<ExecutionReport> {
    let mut rs = ReadySet::new(prepared, planner.cfg.pipeline_depth);
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

    let mut comps = ComponentSlab::new(tie);
    let resources = comps.register(Comp::Resources(ResourceSoA::new(planner)));
    let lanes = comps.register(Comp::Lanes(DeviceLanes::new()));
    let sync = comps.register(Comp::Sync(SyncLink::new()));
    let watch = comps.register(Comp::Observer(obs));

    if policy.initial_ff() > 0 {
        comps
            .resources_mut(resources)
            .quarantine_ff(policy.initial_ff())?;
        comps
            .observer(watch)
            .quarantine(Seconds::ZERO, "ff units", policy.initial_ff());
    }
    if policy.initial_progr_dead() {
        comps.resources_mut(resources).quarantine_progr();
        comps
            .observer(watch)
            .quarantine(Seconds::ZERO, "progr pim", 1);
    }
    for (i, s) in policy.strikes().iter().enumerate() {
        let seq = comps.next_seq();
        comps.sync_mut(sync).schedule_strike(s.at, i, seq);
    }

    let mut clock = Clock::new();
    let mut acc = Accumulator::default();
    let total_instances: usize = prepared
        .iter()
        .map(|wl| wl.spec.steps * wl.topo.len())
        .sum();
    let mut completed = 0usize;
    let mut inflight = 0usize;
    // Scratch buffer for the per-wake scan over the ready set, reused
    // across iterations and pre-sized for the whole graph.
    let mut scan: Vec<Key> = Vec::with_capacity(prepared.iter().map(|wl| wl.topo.len()).sum());

    while completed < total_instances {
        // Schedule everything that fits right now. One pass in priority
        // order suffices: placing an op only consumes resources and never
        // unlocks readiness, and `choose` is monotone in availability, so
        // an op skipped earlier in the pass cannot become placeable later
        // in the same pass. The scan holds only instances inside their own
        // workload's pipeline window.
        // Availability only changes on acquire within the pass; read it
        // once and refresh after each placement. With every resource
        // saturated nothing can be placed, so the scan is skipped.
        let saturated = |a: &Availability| !a.cpu_free && !a.progr_free && a.ff_free == 0;
        let mut avail = comps.resources(resources).availability();
        if saturated(&avail) {
            scan.clear();
        } else {
            rs.scan(prepared, &mut scan);
            order_scan(tie, &mut scan);
        }
        for &key in &scan {
            if saturated(&avail) {
                break;
            }
            let wl = &prepared[key.wl];
            let cost = &wl.costs[key.op];
            let is_candidate = wl.candidates.contains(OpId::new(key.op));
            let Some(kind) = planner.choose(cost, is_candidate, wl.spec.cpu_progr_only, avail)
            else {
                continue;
            };
            let attempt = if P::FAULTY {
                attempts[key.wl][key.step * wl.deps.len() + key.op]
            } else {
                0
            };
            let (charge, outcome) = policy.attempt(
                planner.plan_cost(kind, cost),
                (key.wl, key.step, key.op),
                attempt,
                clock.now(),
            );
            let units = comps.resources_mut(resources).acquire(kind, &charge)?;
            avail = comps.resources(resources).availability();
            rs.remove(&key);
            inflight += 1;
            let rec = InFlight {
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
            };
            let seq = comps.next_seq();
            let end_fs = comps
                .lanes_mut(lanes)
                .dispatch(clock.now() + charge.duration, rec, seq);
            if !P::FAULTY {
                // A fault-free attempt always completes as planned: commit
                // it now, ending at the same femtosecond quantization the
                // event heap uses, so timeline intervals match the actual
                // resource hold times exactly.
                let end = Clock::from_fs(end_fs);
                commit(
                    &mut acc,
                    comps.observer(watch),
                    wl,
                    &rec,
                    end,
                    &charge,
                    outcome,
                );
            }
            if units > 0 {
                comps.observer(watch).ff_delta(clock.now(), units as isize);
            }
        }

        // Anything still ready is stalled: either the Fig. 7 registers
        // showed no free resources, or its step sits outside the pipeline
        // window.
        let ready = rs.len();
        if ready > 0 {
            let window_closed = rs.window_closed();
            let resource_waiting = ready - window_closed;
            if resource_waiting > 0 {
                let avail = comps.resources(resources).availability();
                comps
                    .observer(watch)
                    .stall(clock.now(), resource_waiting, window_closed, avail);
            }
        }

        let Some(next) = comps.earliest() else {
            return Err(PimError::internal(format!(
                "scheduler wedged with {completed} of {total_instances} instances done"
            )));
        };
        let Some((t_fs, retired)) = comps.advance(next) else {
            unreachable!("earliest() only returns components with a pending tick")
        };
        clock.jump_to_fs(t_fs);
        // The budget check site: once per retired event at the component
        // next-tick merge (retry wakes and strikes count as events, so
        // fuel bounds a run that keeps faulting forever). On the unbounded
        // default this is a counter increment plus two never-true
        // compares.
        gauge.tick(clock.now())?;
        match retired {
            Retired::Stale => {} // killed by a strike; already accounted
            Retired::Op(rec) => {
                comps.resources_mut(resources).release(
                    rec.units,
                    rec.charge.uses_cpu,
                    rec.charge.uses_progr,
                );
                inflight -= 1;
                if rec.units > 0 {
                    comps
                        .observer(watch)
                        .ff_delta(clock.now(), -(rec.units as isize));
                }
                let wl = &prepared[rec.wl];
                if P::FAULTY {
                    let obs = comps.observer(watch);
                    commit(
                        &mut acc,
                        obs,
                        wl,
                        &rec,
                        clock.now(),
                        &rec.charge,
                        rec.outcome,
                    );
                }
                let slot = rec.step * wl.deps.len() + rec.op;
                match rec.outcome {
                    AttemptOutcome::Completed => {
                        completed += 1;
                        comps.observer(watch).completed();
                        rs.complete(prepared, rec.wl, rec.step, rec.op);
                    }
                    AttemptOutcome::Transient => {
                        let obs = comps.observer(watch);
                        obs.fault(clock.now(), "transient", rec.wl, rec.step, rec.op);
                        obs.retried();
                        attempts[rec.wl][slot] += 1;
                        let seq = comps.next_seq();
                        comps.sync_mut(sync).schedule_retry(
                            clock.now() + backoff_after(rec.attempt),
                            rec.wl,
                            rec.step,
                            rec.op,
                            seq,
                        );
                    }
                    AttemptOutcome::TimedOut => {
                        let obs = comps.observer(watch);
                        obs.fault(clock.now(), "timed-out", rec.wl, rec.step, rec.op);
                        obs.redispatched();
                        attempts[rec.wl][slot] += 1;
                        rs.requeue(prepared, rec.wl, rec.step, rec.op);
                    }
                    AttemptOutcome::Killed => {
                        unreachable!("live in-flight records never carry Killed")
                    }
                }
            }
            Retired::Retry { wl, step, op } => rs.requeue(prepared, wl, step, op),
            Retired::Strike(i) => {
                let s = policy.strikes()[i];
                let lost = match s.target {
                    FaultTarget::FixedUnits(n) => n.min(comps.resources(resources).alive_ff()),
                    FaultTarget::ProgrPim => 0,
                };
                // Kill the in-flight attempts the strike lands on, earliest
                // dispatch first, until the lost resources are idle.
                loop {
                    let need_kill = match s.target {
                        FaultTarget::FixedUnits(_) => comps.resources(resources).free_ff() < lost,
                        FaultTarget::ProgrPim => {
                            comps.lanes(lanes).any_live(|r| r.charge.uses_progr)
                        }
                    };
                    if !need_kill {
                        break;
                    }
                    let victim = comps.lanes(lanes).victim(|r| match s.target {
                        FaultTarget::FixedUnits(_) => r.units > 0,
                        FaultTarget::ProgrPim => r.charge.uses_progr,
                    });
                    let Some(v) = victim else { break };
                    let rec = comps.lanes(lanes).record(v);
                    comps.lanes_mut(lanes).kill(v);
                    comps.resources_mut(resources).release(
                        rec.units,
                        rec.charge.uses_cpu,
                        rec.charge.uses_progr,
                    );
                    inflight -= 1;
                    let obs = comps.observer(watch);
                    if rec.units > 0 {
                        obs.ff_delta(clock.now(), -(rec.units as isize));
                    }
                    let wl = &prepared[rec.wl];
                    let partial = charge_until(&rec.charge, rec.start, clock.now());
                    let outcome = AttemptOutcome::Killed;
                    commit(&mut acc, obs, wl, &rec, clock.now(), &partial, outcome);
                    obs.killed(clock.now(), rec.wl, rec.step, rec.op);
                    obs.retried();
                    attempts[rec.wl][rec.step * wl.deps.len() + rec.op] += 1;
                    rs.requeue(prepared, rec.wl, rec.step, rec.op);
                }
                match s.target {
                    FaultTarget::FixedUnits(_) => {
                        comps.resources_mut(resources).quarantine_ff(lost)?;
                        comps
                            .observer(watch)
                            .quarantine(clock.now(), "ff units", lost);
                    }
                    FaultTarget::ProgrPim => {
                        comps.resources_mut(resources).quarantine_progr();
                        comps
                            .observer(watch)
                            .quarantine(clock.now(), "progr pim", 1);
                    }
                }
            }
            Retired::Idle => {
                unreachable!("passive components never win the earliest-tick race")
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
    comps.observer(watch).barrier(makespan, barrier_total);
    comps.observer(watch).decision(decisions);
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

    /// Drives the ready set through random dispatch (remove), completion
    /// and failed-attempt requeue (insert) sequences, with co-run step
    /// counts 100x apart, and checks every scan against a `BTreeSet`
    /// reference filtered by each key's own workload window.
    #[test]
    fn ready_set_scan_matches_a_filtered_btree_reference() {
        const DEPTH: usize = 4;
        let engine = Engine::new(EngineConfig::preset(SystemPreset::Hetero));
        // 36, 6 and 24 ops: two or three co-run workloads spread their
        // slots over more than one bitset word per step.
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
        for steps in [&[200][..], &[2, 200], &[200, 2, 20]] {
            let specs: Vec<WorkloadSpec<'_>> = steps
                .iter()
                .zip(&graphs)
                .map(|(&steps, graph)| WorkloadSpec {
                    graph,
                    steps,
                    cpu_progr_only: false,
                })
                .collect();
            let prepared = engine
                .prepare(&specs, &mut NullTrace, TieBreak::Stable)
                .unwrap();
            let mut rs = ReadySet::new(&prepared, DEPTH);
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
            let total: usize = prepared
                .iter()
                .map(|wl| wl.spec.steps * wl.topo.len())
                .sum();
            let mut rng = XorShiftRng::new(steps.len() as u64);
            let (mut inflight, mut completed, mut scan) = (Vec::new(), 0, Vec::new());
            while completed < total {
                rs.scan(&prepared, &mut scan);
                let expected = reference.in_window(DEPTH);
                assert_eq!(scan, expected, "steps {steps:?}");
                assert_eq!(rs.len(), reference.ready.len());
                assert_eq!(rs.window_closed(), reference.ready.len() - expected.len());
                if !scan.is_empty() && (inflight.is_empty() || rng.below(2) == 0) {
                    let key = scan[rng.below(scan.len())];
                    rs.remove(&key);
                    reference.ready.remove(&key);
                    inflight.push(key);
                } else {
                    let key: Key = inflight.swap_remove(rng.below(inflight.len()));
                    if rng.below(5) == 0 {
                        rs.requeue(&prepared, key.wl, key.step, key.op);
                        reference.ready.insert(key);
                    } else {
                        rs.complete(&prepared, key.wl, key.step, key.op);
                        reference.complete(&prepared, key);
                        completed += 1;
                    }
                }
            }
            assert_eq!(rs.len(), 0);
            assert!(reference.ready.is_empty());
        }
    }
}
