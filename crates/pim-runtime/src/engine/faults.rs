//! The engine's recovery policy over the [`pim_hw::faults`] fault model.
//!
//! `pim_hw::faults` describes *what goes wrong* as pure data; this module
//! owns *how the runtime reacts*:
//!
//! * **transients** — bounded retry with deterministic exponential backoff
//!   ([`MAX_ATTEMPTS`], [`backoff_after`]); the final allowed attempt
//!   always succeeds, so forward progress is guaranteed,
//! * **link timeouts** — the host waits out [`LINK_TIMEOUT`] past the
//!   expected completion, then re-dispatches immediately,
//! * **permanent faults** — in-flight work on the lost resource is killed
//!   (charged for the time it actually ran) and re-dispatched; the
//!   placement planner re-ranks survivors along the paper's
//!   fixed → programmable → host chain,
//! * **stragglers** — wall-clock parts stretch by the window's multiplier;
//!   energy is unchanged (the device computes the same work, just slower).
//!
//! Every decision is a pure function of the plan and the op coordinates,
//! so the same seed yields byte-identical reports, timelines, and traces.
//!
//! In the event core (`engine::components`), the *deferred* fault events
//! this policy produces — backoff retries and scheduled permanent
//! strikes — wait in the scheduled driver's one `(time, seq)` event queue
//! beside the device-lane completions, drawing `seq` from the same
//! counter, so faulted and fault-free runs pop events in one order.

use super::placement::{PlanKind, PlannedOp};
use pim_common::units::Seconds;
use pim_hw::faults::{FaultLane, FaultPlan, FaultTarget, PermanentFault};
use serde::Serialize;

/// Upper bound on attempts per op instance. Attempts `0..MAX_ATTEMPTS-1`
/// may fault; the last one always completes (the host can always run the
/// op itself), bounding retry storms deterministically.
pub const MAX_ATTEMPTS: u32 = 4;

/// Backoff charged after the first failed attempt; doubles per attempt.
pub const BACKOFF_BASE: Seconds = Seconds::new(50e-6);

/// How long the host waits past an op's expected completion before
/// declaring the host↔PIM completion message lost and re-dispatching.
pub const LINK_TIMEOUT: Seconds = Seconds::new(200e-6);

/// Deterministic exponential backoff after failed attempt `attempt`.
pub fn backoff_after(attempt: u32) -> Seconds {
    BACKOFF_BASE * (1u64 << attempt.min(16)) as f64
}

/// How one recorded attempt of an op instance ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum AttemptOutcome {
    /// The attempt ran to completion (the only outcome in fault-free runs).
    Completed,
    /// A transient fault aborted the attempt mid-flight; it is retried
    /// after exponential backoff.
    Transient,
    /// The completion message was lost; the host re-dispatched after
    /// [`LINK_TIMEOUT`].
    TimedOut,
    /// A permanent fault quarantined the resource under the op; the
    /// instance was re-dispatched on the survivors.
    Killed,
}

/// The fault lane a placement's resources live on, if any — pure-CPU
/// placements never fault (the host is the reliability anchor).
pub(crate) fn lane_for(kind: PlanKind) -> Option<FaultLane> {
    if kind.units() > 0 {
        Some(FaultLane::Fixed)
    } else if kind.uses_progr() {
        Some(FaultLane::Progr)
    } else {
        None
    }
}

/// What the plan decrees for one attempt, decided at dispatch.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Fate {
    Complete,
    /// Fails after this fraction of the attempt's duration.
    Transient(f64),
    TimedOut,
}

/// Decides an attempt's fate. The last allowed attempt always completes.
pub(crate) fn decide(
    plan: &FaultPlan,
    lane: Option<FaultLane>,
    wl: usize,
    step: usize,
    op: usize,
    attempt: u32,
) -> Fate {
    let Some(lane) = lane else {
        return Fate::Complete;
    };
    if attempt + 1 >= MAX_ATTEMPTS {
        return Fate::Complete;
    }
    if plan.transient_fails(lane, wl, step, op, attempt) {
        return Fate::Transient(plan.fail_point(wl, step, op, attempt));
    }
    if plan.times_out(lane, wl, step, op, attempt) {
        return Fate::TimedOut;
    }
    Fate::Complete
}

/// Scales every part of a planned op — time *and* energy — for partial
/// charges of aborted attempts (the device burned power only while it ran).
pub(crate) fn scale_planned(p: &PlannedOp, f: f64) -> PlannedOp {
    PlannedOp {
        duration: p.duration * f,
        op_part: p.op_part * f,
        dm_part: p.dm_part * f,
        sync_part: p.sync_part * f,
        energy: p.energy * f,
        ff_busy: p.ff_busy * f,
    }
}

/// Stretches only the wall-clock parts by a straggler multiplier; the
/// device performs the same work, so energy is unchanged.
pub(crate) fn stretch_planned(p: &PlannedOp, f: f64) -> PlannedOp {
    PlannedOp {
        energy: p.energy,
        ..scale_planned(p, f)
    }
}

/// Extends a timed-out attempt by the detection window: the resources stay
/// held (the host cannot reclaim what it cannot reach) and the wait is
/// synchronization time.
pub(crate) fn extend_timeout(p: &PlannedOp) -> PlannedOp {
    PlannedOp {
        duration: p.duration + LINK_TIMEOUT,
        sync_part: p.sync_part + LINK_TIMEOUT,
        ..*p
    }
}

/// The charge of an attempt started at `start` and killed at `at`: the
/// fraction of the work the device performed before the strike.
pub(crate) fn charge_until(p: &PlannedOp, start: Seconds, at: Seconds) -> PlannedOp {
    let dur = p.duration.seconds();
    let frac = if dur > 0.0 {
        ((at - start).seconds() / dur).clamp(0.0, 1.0)
    } else {
        0.0
    };
    scale_planned(p, frac)
}

/// What the execution drivers ask about faults. Each driver is generic
/// over it, with two implementations: the zero-sized [`NoFaults`], whose
/// hooks compile away, and [`FaultContext`].
pub(crate) trait FaultPolicy {
    /// Whether attempts can fail. A fault-free attempt always completes
    /// as planned, so the drivers charge the accumulator and record the
    /// timeline and observer when it is dispatched. A faulted attempt is
    /// charged and recorded when it retires, once its outcome — and, for a
    /// killed attempt, the work actually done — is known. Either order is
    /// part of the output bytes (f64 sums, timeline order, trace order).
    const FAULTY: bool;

    /// Fixed-function units quarantined before the run starts.
    fn initial_ff(&self) -> usize;

    /// Whether the programmable PIM is quarantined before the run starts.
    fn initial_progr_dead(&self) -> bool;

    /// Mid-run fail-stop faults, in strike order.
    fn strikes(&self) -> &[PermanentFault];

    /// The fate of attempt `attempt` of `(wl, step, op)` placed as `kind`
    /// and dispatched at `now` with planned charge `charge`: the
    /// fate-adjusted charge and how the attempt ends.
    fn attempt(
        &self,
        kind: PlanKind,
        charge: PlannedOp,
        coords: (usize, usize, usize),
        attempt: u32,
        now: Seconds,
    ) -> (PlannedOp, AttemptOutcome);
}

/// The fault-free policy: nothing is quarantined, nothing strikes, and
/// every attempt completes as planned.
pub(crate) struct NoFaults;

impl FaultPolicy for NoFaults {
    const FAULTY: bool = false;

    fn initial_ff(&self) -> usize {
        0
    }

    fn initial_progr_dead(&self) -> bool {
        false
    }

    fn strikes(&self) -> &[PermanentFault] {
        &[]
    }

    fn attempt(
        &self,
        _kind: PlanKind,
        charge: PlannedOp,
        _coords: (usize, usize, usize),
        _attempt: u32,
        _now: Seconds,
    ) -> (PlannedOp, AttemptOutcome) {
        (charge, AttemptOutcome::Completed)
    }
}

/// The fault state one driver run executes against: the effective plan
/// plus its strike schedule split into before-run and mid-run parts.
pub(crate) struct FaultContext {
    pub plan: FaultPlan,
    /// Fixed-function units quarantined before the run starts (clamped to
    /// the pool by the caller).
    pub initial_ff: usize,
    /// The programmable PIM is quarantined before the run starts.
    pub initial_progr_dead: bool,
    /// Mid-run fail-stop faults (`at > 0`), in strike order.
    pub strikes: Vec<PermanentFault>,
}

impl FaultContext {
    pub fn new(plan: &FaultPlan, ff_units: usize) -> Self {
        FaultContext {
            initial_ff: plan.initial_ff_quarantine().min(ff_units),
            initial_progr_dead: plan.progr_quarantined_initially(),
            strikes: plan
                .permanents
                .iter()
                .filter(|p| p.at > Seconds::ZERO)
                .copied()
                .collect(),
            plan: plan.clone(),
        }
    }

    /// Does this strike take down the resources a running op placed as
    /// `kind` holds?
    pub fn strike_kills(target: FaultTarget, kind: PlanKind, idle_ff: usize) -> bool {
        match target {
            FaultTarget::FixedUnits(n) => kind.units() > 0 && n > idle_ff,
            FaultTarget::ProgrPim => kind.uses_progr(),
        }
    }
}

impl FaultPolicy for FaultContext {
    const FAULTY: bool = true;

    fn initial_ff(&self) -> usize {
        self.initial_ff
    }

    fn initial_progr_dead(&self) -> bool {
        self.initial_progr_dead
    }

    fn strikes(&self) -> &[PermanentFault] {
        &self.strikes
    }

    /// Stretches the charge by any straggler window open at `now`, then
    /// applies the attempt's fate.
    fn attempt(
        &self,
        kind: PlanKind,
        mut charge: PlannedOp,
        (wl, step, op): (usize, usize, usize),
        attempt: u32,
        now: Seconds,
    ) -> (PlannedOp, AttemptOutcome) {
        let lane = lane_for(kind);
        if let Some(l) = lane {
            let m = self.plan.latency_multiplier(l, now);
            if m > 1.0 {
                charge = stretch_planned(&charge, m);
            }
        }
        match decide(&self.plan, lane, wl, step, op, attempt) {
            Fate::Complete => (charge, AttemptOutcome::Completed),
            Fate::Transient(frac) => (scale_planned(&charge, frac), AttemptOutcome::Transient),
            Fate::TimedOut => (extend_timeout(&charge), AttemptOutcome::TimedOut),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_per_attempt() {
        assert_eq!(backoff_after(0), BACKOFF_BASE);
        assert_eq!(backoff_after(1), BACKOFF_BASE * 2.0);
        assert_eq!(backoff_after(3), BACKOFF_BASE * 8.0);
    }

    #[test]
    fn last_attempt_always_completes() {
        // A plan that fails everything still cannot starve an op: the
        // final attempt completes regardless of the draw.
        let plan = FaultPlan {
            transient_rate: 1.0,
            ..FaultPlan::none()
        };
        for attempt in 0..MAX_ATTEMPTS - 1 {
            assert!(matches!(
                decide(&plan, Some(FaultLane::Fixed), 0, 0, 0, attempt),
                Fate::Transient(_)
            ));
        }
        assert!(matches!(
            decide(&plan, Some(FaultLane::Fixed), 0, 0, 0, MAX_ATTEMPTS - 1),
            Fate::Complete
        ));
        // Pure-CPU placements never fault.
        assert!(matches!(decide(&plan, None, 0, 0, 0, 0), Fate::Complete));
    }

    #[test]
    fn fault_context_splits_initial_from_mid_run() {
        let plan = FaultPlan::quarantine_ff_at_start(500)
            .with_permanent(Seconds::new(1e-3), FaultTarget::ProgrPim);
        let ctx = FaultContext::new(&plan, 444);
        assert_eq!(ctx.initial_ff, 444, "initial quarantine clamps to the pool");
        assert!(!ctx.initial_progr_dead);
        assert_eq!(ctx.strikes.len(), 1);
        assert_eq!(ctx.strikes[0].target, FaultTarget::ProgrPim);
    }

    #[test]
    fn strike_kill_rule_spares_ops_covered_by_idle_units() {
        let fixed = PlanKind::FixedWhole {
            rc_runtime: true,
            units: 64,
        };
        // 100 units lost, 150 idle: running work survives.
        assert!(!FaultContext::strike_kills(
            FaultTarget::FixedUnits(100),
            fixed,
            150
        ));
        // 100 lost, 50 idle: someone holding units must die.
        assert!(FaultContext::strike_kills(
            FaultTarget::FixedUnits(100),
            fixed,
            50
        ));
        // Work holding no units never dies of a unit strike.
        assert!(!FaultContext::strike_kills(
            FaultTarget::FixedUnits(100),
            PlanKind::Progr,
            0
        ));
        assert!(FaultContext::strike_kills(
            FaultTarget::ProgrPim,
            PlanKind::Progr,
            444
        ));
        assert!(FaultContext::strike_kills(
            FaultTarget::ProgrPim,
            PlanKind::Recursive { units: 64 },
            444
        ));
        assert!(!FaultContext::strike_kills(FaultTarget::ProgrPim, fixed, 0));
    }
}
