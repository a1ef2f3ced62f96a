//! Schedule-legality checking: replay an execution timeline against the
//! dependency structure, device capabilities, and the Fig. 7 exclusivity
//! rules.
//!
//! The checker is pure: it consumes per-workload facts plus the recorded
//! [`TimelineEntry`] list and reports every violation as a `schedule`-pass
//! [`Diagnostic`](pim_common::Diagnostic). It backs two consumers:
//!
//! * the engine's own run-time assertions (on in every debug build) and
//!   [`Engine::verify`],
//! * the `pim-verify` static-analysis CLI, which replays every model under
//!   every configuration.
//!
//! [`Engine::verify`]: crate::engine::Engine::verify

use crate::engine::{backoff_after, AttemptOutcome, ResourceClass, TimelineEntry, MAX_ATTEMPTS};
use pim_common::Diagnostics;
use pim_hw::device::Device;
use pim_hw::faults::{FaultLane, FaultPlan, FaultTarget};
use pim_tensor::cost::CostProfile;

/// The pass name stamped on every diagnostic this module emits.
pub const PASS: &str = "schedule";

/// Absolute + relative slack for time comparisons.
///
/// The event-driven driver quantizes completion times to integer
/// femtoseconds; converting back to `f64` seconds loses at most a few
/// ulps, far below this tolerance, while any real ordering violation spans
/// an op duration (microseconds and up).
fn eps_for(seconds: f64) -> f64 {
    5e-12 + 1e-9 * seconds.abs()
}

/// Dependency and capability facts for one workload in a simulation.
#[derive(Debug, Clone)]
pub struct WorkloadFacts {
    /// Per-op dependency lists (graph predecessors), indexed by op.
    pub deps: Vec<Vec<usize>>,
    /// Training steps simulated.
    pub steps: usize,
    /// The §VI-F non-CNN co-runner rule: only CPU and programmable-PIM
    /// placements are legal for this workload.
    pub restricted: bool,
    /// Per-op cost profiles, indexed by op.
    pub costs: Vec<CostProfile>,
    /// Per-op display names, indexed by op.
    pub names: Vec<&'static str>,
}

/// Exclusive-resource budgets the timeline must respect.
#[derive(Debug, Clone, Copy)]
pub struct ResourceLimits {
    /// Concurrent host-CPU ops (the engine models one host slot).
    pub cpu_slots: usize,
    /// Concurrent programmable-PIM kernels.
    pub progr_slots: usize,
    /// Total fixed-function units on the logic die.
    pub ff_units: usize,
    /// Operation-pipeline window: `Some(depth)` means an op of step `s`
    /// may only start once every step `<= s - depth` has fully completed.
    pub pipeline_depth: Option<usize>,
}

/// Shrink applied to each interval end before the exclusivity sweep, in
/// femtoseconds, absorbing the one-quantum rounding of the clock's
/// seconds↔femtoseconds conversion. Real double-bookings overlap by whole
/// op durations and survive the shrink.
const SWEEP_SHRINK_FS: u128 = 2;

fn to_fs(seconds: f64) -> u128 {
    (seconds * 1e15).max(0.0) as u128
}

fn subject(facts: &[WorkloadFacts], e: &TimelineEntry) -> String {
    let name = facts
        .get(e.workload)
        .and_then(|f| f.names.get(e.op).copied())
        .unwrap_or("?");
    format!("wl{}/step{}/op{} ({})", e.workload, e.step, e.op, name)
}

fn holds_cpu(class: ResourceClass) -> bool {
    matches!(class, ResourceClass::Cpu | ResourceClass::CpuAndFixed)
}

fn holds_progr(class: ResourceClass) -> bool {
    matches!(class, ResourceClass::Progr | ResourceClass::ProgrAndFixed)
}

fn needs_fixed_part(class: ResourceClass) -> bool {
    matches!(
        class,
        ResourceClass::Fixed | ResourceClass::CpuAndFixed | ResourceClass::ProgrAndFixed
    )
}

/// Splits a merged multi-partition timeline (the timeline of a
/// [`Partitioning::Partitioned`](crate::engine::Partitioning::Partitioned)
/// run) back into per-partition streams by its workload tags.
///
/// Entry order within each partition is preserved — the merge is stable —
/// so each returned stream is exactly the timeline that partition's
/// single-workload run recorded, re-tagged to local workload index 0 and
/// ready for [`check_timeline_faulted`] against that workload's facts
/// alone.
/// Entries tagged beyond `partitions` are dropped; callers detect them by
/// comparing entry counts.
pub fn split_partitions(timeline: &[TimelineEntry], partitions: usize) -> Vec<Vec<TimelineEntry>> {
    let mut parts: Vec<Vec<TimelineEntry>> = vec![Vec::new(); partitions];
    for e in timeline {
        if let Some(part) = parts.get_mut(e.workload) {
            let mut local = *e;
            local.workload = 0;
            part.push(local);
        }
    }
    parts
}

/// The fault lane an entry's recorded resources live on, mirroring the
/// engine's dispatch-side classification.
fn entry_lane(e: &TimelineEntry) -> Option<FaultLane> {
    if e.ff_units > 0 {
        Some(FaultLane::Fixed)
    } else if holds_progr(e.resource) {
        Some(FaultLane::Progr)
    } else {
        None
    }
}

/// Checks one recorded timeline against the workload facts, resource
/// budgets, the fixed-function pool's capability rule, and the fault plan.
///
/// `fixed` is the device model answering [`Device::accepts`] for
/// whole-kernel fixed-function placements ([`ResourceClass::Fixed`]);
/// split placements only require the cost to have a multiply/add part.
/// With `plan: None` the timeline must be fault-free: every entry attempt
/// 0, outcome `Completed`. With a plan, the checker additionally
/// validates:
///
/// * **attempt chains** — contiguous attempt numbers per instance, with
///   exactly the last attempt completing, transient retries spaced by at
///   least their exponential backoff, and every attempt below
///   [`MAX_ATTEMPTS`] plus one kill-redispatch per permanent strike,
/// * **plan consistency** — each recorded outcome is the one the seeded
///   plan decrees for that (lane, instance, attempt), and every kill
///   coincides with a permanent fault that takes the entry's resources,
/// * **capacity under quarantine** — the exclusivity sweep shrinks the
///   fixed-function pool and programmable-PIM budgets at each permanent
///   fault's strike time.
pub fn check_timeline_faulted(
    facts: &[WorkloadFacts],
    timeline: &[TimelineEntry],
    limits: &ResourceLimits,
    fixed: &dyn Device,
    plan: Option<&FaultPlan>,
) -> Diagnostics {
    let mut diags = Diagnostics::new();

    // -- per-entry validity, bounds, capability ------------------------
    let mut valid: Vec<&TimelineEntry> = Vec::with_capacity(timeline.len());
    for e in timeline {
        let subj = subject(facts, e);
        let (s, t) = (e.start.seconds(), e.end.seconds());
        if !s.is_finite() || !t.is_finite() || s < 0.0 {
            diags.error(
                PASS,
                subj,
                format!("non-finite or negative times [{s}, {t}]"),
            );
            continue;
        }
        if t < s {
            diags.error(
                PASS,
                subj,
                format!("entry ends before it starts [{s}, {t}]"),
            );
            continue;
        }
        match plan {
            None if e.attempt != 0 || e.outcome != AttemptOutcome::Completed => {
                diags.error(
                    PASS,
                    subj.clone(),
                    format!(
                        "fault-free timeline carries attempt {} with outcome {:?}",
                        e.attempt, e.outcome
                    ),
                );
            }
            // Transient/timeout retries are bounded by MAX_ATTEMPTS, but
            // each permanent strike may additionally kill-and-redispatch
            // an in-flight instance once, so kills raise the bound.
            Some(p)
                if u64::from(e.attempt) >= u64::from(MAX_ATTEMPTS) + p.permanents.len() as u64 =>
            {
                diags.error(
                    PASS,
                    subj.clone(),
                    format!(
                        "attempt {} exceeds the retry bound of {MAX_ATTEMPTS} plus {} permanent strikes",
                        e.attempt,
                        p.permanents.len()
                    ),
                );
            }
            _ => {}
        }
        let Some(f) = facts.get(e.workload) else {
            diags.error(PASS, subj, "workload index out of bounds");
            continue;
        };
        if e.op >= f.deps.len() || e.op >= f.costs.len() {
            diags.error(PASS, subj, "op index out of bounds for its workload");
            continue;
        }
        if e.step >= f.steps {
            diags.error(
                PASS,
                subj,
                format!("step index out of bounds (workload has {} steps)", f.steps),
            );
            continue;
        }
        let cost = &f.costs[e.op];
        if f.restricted && !matches!(e.resource, ResourceClass::Cpu | ResourceClass::Progr) {
            diags.error(
                PASS,
                subj.clone(),
                format!(
                    "restricted workload placed on {:?}; only CPU and Progr are legal",
                    e.resource
                ),
            );
        }
        if needs_fixed_part(e.resource) && e.ff_units == 0 {
            diags.error(
                PASS,
                subj.clone(),
                format!("{:?} placement holds zero fixed-function units", e.resource),
            );
        }
        if e.ff_units > limits.ff_units {
            diags.error(
                PASS,
                subj.clone(),
                format!(
                    "entry holds {} fixed-function units; the pool has {}",
                    e.ff_units, limits.ff_units
                ),
            );
        }
        match e.resource {
            ResourceClass::Fixed if !fixed.accepts(cost) => {
                diags.error(
                    PASS,
                    subj.clone(),
                    format!(
                        "whole-kernel fixed-function placement, but {} rejects class {:?}",
                        fixed.name(),
                        cost.class
                    ),
                );
            }
            ResourceClass::CpuAndFixed | ResourceClass::ProgrAndFixed
                if !cost.class.has_fixed_function_part() =>
            {
                diags.error(
                    PASS,
                    subj.clone(),
                    format!(
                        "split placement {:?}, but class {:?} has no multiply/add part",
                        e.resource, cost.class
                    ),
                );
            }
            _ => {}
        }
        valid.push(e);
    }

    // -- completeness: each (workload, step, op) completes exactly once --
    // instance index = step * op_count + op. Under a fault plan, failed
    // attempts are legal extra entries; exactly one must complete.
    let mut seen: Vec<Vec<Option<(f64, f64)>>> = facts
        .iter()
        .map(|f| vec![None; f.steps * f.deps.len()])
        .collect();
    for e in &valid {
        if plan.is_some() && e.outcome != AttemptOutcome::Completed {
            continue;
        }
        let f = &facts[e.workload];
        let idx = e.step * f.deps.len() + e.op;
        if seen[e.workload][idx].is_some() {
            diags.error(PASS, subject(facts, e), "instance scheduled more than once");
        } else {
            seen[e.workload][idx] = Some((e.start.seconds(), e.end.seconds()));
        }
    }
    for (w, f) in facts.iter().enumerate() {
        let ops = f.deps.len();
        for (idx, slot) in seen[w].iter().enumerate() {
            if slot.is_none() {
                let (step, op) = (idx / ops, idx % ops);
                let name = f.names.get(op).copied().unwrap_or("?");
                diags.error(
                    PASS,
                    format!("wl{w}/step{step}/op{op} ({name})"),
                    "instance never scheduled",
                );
            }
        }
    }

    // -- dependency order (intra-step edges and the cross-step chain) --
    for e in &valid {
        let f = &facts[e.workload];
        let ops = f.deps.len();
        let start = e.start.seconds();
        let mut require_after = |dep_step: usize, dep_op: usize, what: &str| {
            if let Some((_, dep_end)) = seen[e.workload][dep_step * ops + dep_op] {
                if start + eps_for(start) < dep_end {
                    diags.error(
                        PASS,
                        subject(facts, e),
                        format!(
                            "starts at {start:.3e} s before {what} op{dep_op} of step \
                             {dep_step} ends at {dep_end:.3e} s"
                        ),
                    );
                }
            }
        };
        for &d in &f.deps[e.op] {
            require_after(e.step, d, "dependency");
        }
        if e.step > 0 {
            require_after(e.step - 1, e.op, "previous instance of");
        }
    }

    // -- operation-pipeline window -------------------------------------
    if let Some(depth) = limits.pipeline_depth {
        for (w, f) in facts.iter().enumerate() {
            let ops = f.deps.len();
            if ops == 0 || f.steps == 0 {
                continue;
            }
            // Latest completion per step, then running prefix max: the
            // window rule compares against *all* steps at or before the
            // horizon.
            let mut step_end = vec![0.0f64; f.steps];
            for (idx, slot) in seen[w].iter().enumerate() {
                if let Some((_, end)) = slot {
                    let step = idx / ops;
                    step_end[step] = step_end[step].max(*end);
                }
            }
            let mut prefix = step_end.clone();
            for s in 1..f.steps {
                prefix[s] = prefix[s].max(prefix[s - 1]);
            }
            for e in valid.iter().filter(|e| e.workload == w) {
                if e.step >= depth {
                    let horizon = prefix[e.step - depth];
                    let start = e.start.seconds();
                    if start + eps_for(start) < horizon {
                        diags.error(
                            PASS,
                            subject(facts, e),
                            format!(
                                "starts at {start:.3e} s inside the pipeline window: step \
                                 {} only completes at {horizon:.3e} s (depth {depth})",
                                e.step - depth
                            ),
                        );
                    }
                }
            }
        }
    }

    // -- attempt chains + plan consistency (fault-aware mode) ----------
    if let Some(plan) = plan {
        let mut chains: Vec<Vec<Vec<&TimelineEntry>>> = facts
            .iter()
            .map(|f| vec![Vec::new(); f.steps * f.deps.len()])
            .collect();
        for e in &valid {
            let f = &facts[e.workload];
            chains[e.workload][e.step * f.deps.len() + e.op].push(e);
        }
        for chain in chains.iter_mut().flatten() {
            if chain.is_empty() {
                continue;
            }
            chain.sort_by_key(|e| e.attempt);
            let contiguous = chain
                .iter()
                .enumerate()
                .all(|(k, e)| e.attempt as usize == k);
            if !contiguous {
                diags.error(
                    PASS,
                    subject(facts, chain[0]),
                    "attempt numbers are not contiguous from zero",
                );
                continue;
            }
            for (k, e) in chain.iter().enumerate() {
                let last = k + 1 == chain.len();
                if last != (e.outcome == AttemptOutcome::Completed) {
                    diags.error(
                        PASS,
                        subject(facts, e),
                        format!(
                            "attempt {} of {} has outcome {:?}; exactly the final attempt \
                             must complete",
                            k,
                            chain.len(),
                            e.outcome
                        ),
                    );
                }
                if k > 0 {
                    let prev = chain[k - 1];
                    let mut floor = prev.end.seconds();
                    if prev.outcome == AttemptOutcome::Transient {
                        floor += backoff_after(prev.attempt).seconds();
                    }
                    let start = e.start.seconds();
                    if start + eps_for(start) < floor {
                        diags.error(
                            PASS,
                            subject(facts, e),
                            format!(
                                "retry starts at {start:.3e} s before the previous attempt's \
                                 end plus backoff at {floor:.3e} s"
                            ),
                        );
                    }
                }
            }
        }
        for e in &valid {
            let lane = entry_lane(e);
            let (w, s, o, a) = (e.workload, e.step, e.op, e.attempt);
            match e.outcome {
                AttemptOutcome::Completed => {
                    if let Some(l) = lane {
                        if a + 1 < MAX_ATTEMPTS
                            && (plan.transient_fails(l, w, s, o, a)
                                || plan.times_out(l, w, s, o, a))
                        {
                            diags.error(
                                PASS,
                                subject(facts, e),
                                format!(
                                    "attempt {a} completed, but the fault plan decrees it fails"
                                ),
                            );
                        }
                    }
                }
                AttemptOutcome::Transient => match lane {
                    Some(l) if plan.transient_fails(l, w, s, o, a) => {}
                    _ => diags.error(
                        PASS,
                        subject(facts, e),
                        format!("attempt {a} records a transient the fault plan does not decree"),
                    ),
                },
                AttemptOutcome::TimedOut => match lane {
                    Some(l)
                        if !plan.transient_fails(l, w, s, o, a)
                            && plan.times_out(l, w, s, o, a) => {}
                    _ => diags.error(
                        PASS,
                        subject(facts, e),
                        format!("attempt {a} records a timeout the fault plan does not decree"),
                    ),
                },
                AttemptOutcome::Killed => {
                    let end = e.end.seconds();
                    let matched = plan.permanents.iter().any(|p| {
                        p.at.seconds() > 0.0
                            && (end - p.at.seconds()).abs() <= eps_for(end)
                            && match p.target {
                                FaultTarget::FixedUnits(_) => e.ff_units > 0,
                                FaultTarget::ProgrPim => holds_progr(e.resource),
                            }
                    });
                    if !matched {
                        diags.error(
                            PASS,
                            subject(facts, e),
                            "killed with no permanent fault striking its resources at its end",
                        );
                    }
                }
            }
        }
    }

    // -- exclusivity sweep (Fig. 7 busy/idle state) --------------------
    // Events at (femtosecond, rank) with releases applied first, then
    // fault-plan capacity cuts, then acquires: back-to-back intervals
    // sharing an instant never report contention, and work killed exactly
    // at a strike releases its units before the capacity drops.
    const RELEASE: u8 = 0;
    const CUT: u8 = 1;
    const ACQUIRE: u8 = 2;
    // (strike femtosecond, ff units lost, progr lost)
    let mut cuts: Vec<(u128, usize, bool)> = Vec::new();
    let mut ff_cap = limits.ff_units as i64;
    let mut progr_cap = limits.progr_slots as i64;
    if let Some(plan) = plan {
        ff_cap -= plan.initial_ff_quarantine().min(limits.ff_units) as i64;
        if plan.progr_quarantined_initially() {
            progr_cap = 0;
        }
        for p in &plan.permanents {
            if p.at.seconds() <= 0.0 {
                continue;
            }
            match p.target {
                FaultTarget::FixedUnits(n) => cuts.push((to_fs(p.at.seconds()), n, false)),
                FaultTarget::ProgrPim => cuts.push((to_fs(p.at.seconds()), 0, true)),
            }
        }
    }
    let mut events: Vec<(u128, u8, usize)> = Vec::new();
    for (i, e) in valid.iter().enumerate() {
        let (a, b) = (to_fs(e.start.seconds()), to_fs(e.end.seconds()));
        if b <= a + 2 * SWEEP_SHRINK_FS {
            continue; // effectively instantaneous: cannot double-book
        }
        events.push((a + SWEEP_SHRINK_FS, ACQUIRE, i));
        events.push((b - SWEEP_SHRINK_FS, RELEASE, i));
    }
    for (i, &(t, _, _)) in cuts.iter().enumerate() {
        events.push((t, CUT, i));
    }
    events.sort_unstable_by_key(|&(t, rank, _)| (t, rank));
    let (mut cpu_used, mut progr_used, mut ff_used) = (0i64, 0i64, 0i64);
    for (t, rank, i) in events {
        if rank == CUT {
            let (_, n, progr) = cuts[i];
            let at = t as f64 * 1e-15;
            if progr {
                progr_cap = 0;
                if progr_used > 0 {
                    diags.error(
                        PASS,
                        format!("fault-plan strike at {at:.3e} s"),
                        format!(
                            "{progr_used} programmable-PIM kernels survive the PIM's \
                             permanent fault"
                        ),
                    );
                }
            } else {
                let lost = (n as i64).min(ff_cap);
                ff_cap -= lost;
                if ff_used > ff_cap {
                    diags.error(
                        PASS,
                        format!("fault-plan strike at {at:.3e} s"),
                        format!(
                            "{ff_used} fixed-function units held past a quarantine of \
                             {lost} (capacity now {ff_cap})"
                        ),
                    );
                }
            }
            continue;
        }
        let e = valid[i];
        let delta = if rank == ACQUIRE { 1 } else { -1 };
        if holds_cpu(e.resource) {
            cpu_used += delta;
            if rank == ACQUIRE && cpu_used > limits.cpu_slots as i64 {
                diags.error(
                    PASS,
                    subject(facts, e),
                    format!(
                        "double-books the CPU: {cpu_used} concurrent host ops (limit {})",
                        limits.cpu_slots
                    ),
                );
            }
        }
        if holds_progr(e.resource) {
            progr_used += delta;
            if rank == ACQUIRE && progr_used > progr_cap {
                diags.error(
                    PASS,
                    subject(facts, e),
                    format!(
                        "over-subscribes the programmable PIM: {progr_used} concurrent \
                         kernels (limit {progr_cap})"
                    ),
                );
            }
        }
        if e.ff_units > 0 {
            ff_used += delta * e.ff_units as i64;
            if rank == ACQUIRE && ff_used > ff_cap {
                diags.error(
                    PASS,
                    subject(facts, e),
                    format!(
                        "over-subscribes the fixed-function pool: {ff_used} units held \
                         (limit {ff_cap})"
                    ),
                );
            }
        }
    }

    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_common::units::{Bytes, Seconds};
    use pim_hw::fixed::{FixedFunctionPool, FixedPoolConfig};
    use pim_mem::stack::StackConfig;
    use pim_tensor::cost::{CostProfile, OffloadClass};

    fn cost(class: OffloadClass) -> CostProfile {
        CostProfile::compute(1e6, 1e6, 0.0, Bytes::new(1e4), Bytes::new(1e4), class, 64)
    }

    fn facts() -> Vec<WorkloadFacts> {
        vec![WorkloadFacts {
            deps: vec![vec![], vec![0]],
            steps: 1,
            restricted: false,
            costs: vec![
                cost(OffloadClass::FullyMulAdd),
                cost(OffloadClass::NonMulAdd),
            ],
            names: vec!["MatMul", "Relu"],
        }]
    }

    fn limits() -> ResourceLimits {
        ResourceLimits {
            cpu_slots: 1,
            progr_slots: 2,
            ff_units: 128,
            pipeline_depth: None,
        }
    }

    fn pool() -> FixedFunctionPool {
        FixedFunctionPool::new(FixedPoolConfig::with_units(&StackConfig::hmc2(), 128))
    }

    fn entry(op: usize, start: f64, end: f64, resource: ResourceClass) -> TimelineEntry {
        TimelineEntry {
            workload: 0,
            step: 0,
            op,
            start: Seconds::new(start),
            end: Seconds::new(end),
            resource,
            ff_units: match resource {
                ResourceClass::Fixed
                | ResourceClass::CpuAndFixed
                | ResourceClass::ProgrAndFixed => 64,
                _ => 0,
            },
            attempt: 0,
            outcome: AttemptOutcome::Completed,
        }
    }

    fn attempt_entry(
        op: usize,
        start: f64,
        end: f64,
        resource: ResourceClass,
        attempt: u32,
        outcome: AttemptOutcome,
    ) -> TimelineEntry {
        TimelineEntry {
            attempt,
            outcome,
            ..entry(op, start, end, resource)
        }
    }

    #[test]
    fn legal_serial_timeline_is_clean() {
        let timeline = vec![
            entry(0, 0.0, 1.0, ResourceClass::Fixed),
            entry(1, 1.0, 2.0, ResourceClass::Cpu),
        ];
        let diags = check_timeline_faulted(&facts(), &timeline, &limits(), &pool(), None);
        assert!(diags.is_clean(), "{}", diags.render_text());
    }

    #[test]
    fn dependency_violation_is_reported() {
        let timeline = vec![
            entry(0, 0.0, 1.0, ResourceClass::Fixed),
            entry(1, 0.5, 1.5, ResourceClass::Cpu), // starts before its dep ends
        ];
        let diags = check_timeline_faulted(&facts(), &timeline, &limits(), &pool(), None);
        assert_eq!(diags.error_count(), 1);
        assert!(diags.render_text().contains("before dependency op0"));
    }

    #[test]
    fn double_booked_cpu_is_reported() {
        let mut facts = facts();
        facts[0].deps[1].clear(); // make the ops independent
        let timeline = vec![
            entry(0, 0.0, 1.0, ResourceClass::Cpu),
            entry(1, 0.5, 1.5, ResourceClass::Cpu),
        ];
        let diags = check_timeline_faulted(&facts, &timeline, &limits(), &pool(), None);
        assert_eq!(diags.error_count(), 1);
        assert!(diags.render_text().contains("double-books the CPU"));
    }

    #[test]
    fn missing_and_duplicate_instances_are_reported() {
        let timeline = vec![
            entry(0, 0.0, 1.0, ResourceClass::Fixed),
            entry(0, 1.0, 2.0, ResourceClass::Fixed),
        ];
        let diags = check_timeline_faulted(&facts(), &timeline, &limits(), &pool(), None);
        let text = diags.render_text();
        assert!(text.contains("more than once"), "{text}");
        assert!(text.contains("never scheduled"), "{text}");
    }

    #[test]
    fn fixed_placement_of_non_mul_add_is_rejected() {
        let timeline = vec![
            entry(0, 0.0, 1.0, ResourceClass::Fixed),
            entry(1, 1.0, 2.0, ResourceClass::Fixed), // Relu on the pool
        ];
        let diags = check_timeline_faulted(&facts(), &timeline, &limits(), &pool(), None);
        assert_eq!(diags.error_count(), 1);
        assert!(diags.render_text().contains("rejects class"));
    }

    #[test]
    fn restricted_workload_must_stay_on_cpu_and_progr() {
        let mut facts = facts();
        facts[0].restricted = true;
        let timeline = vec![
            entry(0, 0.0, 1.0, ResourceClass::Fixed),
            entry(1, 1.0, 2.0, ResourceClass::Cpu),
        ];
        let diags = check_timeline_faulted(&facts, &timeline, &limits(), &pool(), None);
        assert!(diags.render_text().contains("restricted workload"));
    }

    #[test]
    fn touching_intervals_do_not_double_book() {
        let mut facts = facts();
        facts[0].deps[1].clear();
        let timeline = vec![
            entry(0, 0.0, 1.0, ResourceClass::Cpu),
            entry(1, 1.0, 2.0, ResourceClass::Cpu),
        ];
        let diags = check_timeline_faulted(&facts, &timeline, &limits(), &pool(), None);
        assert!(diags.is_clean(), "{}", diags.render_text());
    }

    #[test]
    fn fault_free_timeline_rejects_fault_outcomes() {
        let timeline = vec![
            attempt_entry(
                0,
                0.0,
                1.0,
                ResourceClass::Fixed,
                0,
                AttemptOutcome::Transient,
            ),
            attempt_entry(
                0,
                1.1,
                2.1,
                ResourceClass::Fixed,
                1,
                AttemptOutcome::Completed,
            ),
            entry(1, 2.1, 3.1, ResourceClass::Cpu),
        ];
        let diags = check_timeline_faulted(&facts(), &timeline, &limits(), &pool(), None);
        let text = diags.render_text();
        assert!(
            text.contains("fault-free timeline carries attempt"),
            "{text}"
        );
    }

    #[test]
    fn faulted_checker_accepts_a_legal_retry_chain() {
        use pim_hw::faults::FaultPlan;
        // Every faultable attempt below the bound fails as a transient;
        // the final attempt completes. CPU placements never fault.
        let plan = FaultPlan {
            transient_rate: 1.0,
            ..FaultPlan::none()
        };
        let timeline = vec![
            attempt_entry(
                0,
                0.0,
                1.0,
                ResourceClass::Fixed,
                0,
                AttemptOutcome::Transient,
            ),
            attempt_entry(
                0,
                1.1,
                2.1,
                ResourceClass::Fixed,
                1,
                AttemptOutcome::Transient,
            ),
            attempt_entry(
                0,
                2.2,
                3.2,
                ResourceClass::Fixed,
                2,
                AttemptOutcome::Transient,
            ),
            attempt_entry(
                0,
                3.3,
                4.3,
                ResourceClass::Fixed,
                3,
                AttemptOutcome::Completed,
            ),
            entry(1, 4.3, 5.3, ResourceClass::Cpu),
        ];
        let diags = check_timeline_faulted(&facts(), &timeline, &limits(), &pool(), Some(&plan));
        assert!(diags.is_clean(), "{}", diags.render_text());
    }

    #[test]
    fn faulted_checker_flags_backoff_and_chain_violations() {
        use pim_hw::faults::FaultPlan;
        let plan = FaultPlan {
            transient_rate: 1.0,
            ..FaultPlan::none()
        };
        // Retry ignores the backoff, and a second chain skips attempt 1.
        let timeline = vec![
            attempt_entry(
                0,
                0.0,
                1.0,
                ResourceClass::Fixed,
                0,
                AttemptOutcome::Transient,
            ),
            attempt_entry(
                0,
                1.0,
                2.0,
                ResourceClass::Fixed,
                1,
                AttemptOutcome::Transient,
            ),
            attempt_entry(
                0,
                2.1,
                3.1,
                ResourceClass::Fixed,
                2,
                AttemptOutcome::Transient,
            ),
            attempt_entry(
                0,
                3.2,
                4.2,
                ResourceClass::Fixed,
                3,
                AttemptOutcome::Completed,
            ),
            attempt_entry(
                1,
                4.3,
                5.3,
                ResourceClass::Cpu,
                1,
                AttemptOutcome::Completed,
            ),
        ];
        let diags = check_timeline_faulted(&facts(), &timeline, &limits(), &pool(), Some(&plan));
        let text = diags.render_text();
        assert!(
            text.contains("before the previous attempt's end plus backoff"),
            "{text}"
        );
        assert!(text.contains("not contiguous"), "{text}");
    }

    #[test]
    fn faulted_checker_flags_work_surviving_a_quarantine() {
        use pim_common::units::Seconds as S;
        use pim_hw::faults::{FaultPlan, FaultTarget};
        let mut facts = facts();
        facts[0].deps[1].clear();
        // All 128 units quarantined at t = 0.5 while op0 still holds 64
        // until t = 1.0, and no kill was recorded.
        let plan = FaultPlan::none().with_permanent(S::new(0.5), FaultTarget::FixedUnits(128));
        let timeline = vec![
            entry(0, 0.0, 1.0, ResourceClass::Fixed),
            entry(1, 1.0, 2.0, ResourceClass::Cpu),
        ];
        let diags = check_timeline_faulted(&facts, &timeline, &limits(), &pool(), Some(&plan));
        let text = diags.render_text();
        assert!(text.contains("held past a quarantine"), "{text}");
    }

    #[test]
    fn split_partitions_of_empty_timeline_yields_empty_streams() {
        let parts = split_partitions(&[], 3);
        assert_eq!(parts.len(), 3);
        assert!(parts.iter().all(Vec::is_empty));
        // Zero partitions is also well-formed: nothing to split into.
        assert!(split_partitions(&[], 0).is_empty());
    }

    #[test]
    fn split_partitions_single_partition_is_identity_modulo_tag() {
        let timeline = vec![
            entry(0, 0.0, 1.0, ResourceClass::Fixed),
            entry(1, 1.0, 2.0, ResourceClass::Cpu),
        ];
        let parts = split_partitions(&timeline, 1);
        assert_eq!(parts.len(), 1);
        assert_eq!(
            parts[0], timeline,
            "workload 0 entries pass through unchanged"
        );
    }

    #[test]
    fn split_partitions_all_entries_in_one_partition_leaves_others_empty() {
        let mut timeline = vec![
            entry(0, 0.0, 1.0, ResourceClass::Fixed),
            entry(1, 1.0, 2.0, ResourceClass::Cpu),
            entry(1, 2.0, 3.0, ResourceClass::Progr),
        ];
        for e in &mut timeline {
            e.workload = 2;
        }
        let parts = split_partitions(&timeline, 4);
        assert_eq!(parts.len(), 4);
        assert!(parts[0].is_empty() && parts[1].is_empty() && parts[3].is_empty());
        assert_eq!(parts[2].len(), 3);
        // Entries are re-tagged to local index 0 with order preserved.
        assert!(parts[2].iter().all(|e| e.workload == 0));
        assert_eq!(
            parts[2].iter().map(|e| e.op).collect::<Vec<_>>(),
            vec![0, 1, 1]
        );
    }

    #[test]
    fn split_partitions_drops_entries_tagged_beyond_the_partition_count() {
        let mut stray = entry(0, 0.0, 1.0, ResourceClass::Cpu);
        stray.workload = 7;
        let timeline = vec![entry(0, 0.0, 1.0, ResourceClass::Fixed), stray];
        let parts = split_partitions(&timeline, 2);
        let kept: usize = parts.iter().map(Vec::len).sum();
        assert_eq!(
            kept, 1,
            "out-of-range tags are dropped, detectable by count"
        );
    }
}
