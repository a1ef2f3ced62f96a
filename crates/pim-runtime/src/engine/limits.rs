//! Cooperative cancellation and deterministic execution budgets.
//!
//! A [`RunRequest`](super::RunRequest) may carry [`RunLimits`]: an
//! event-count fuel budget (`max_events`), a simulated-time deadline
//! (`deadline`), and/or an asynchronous [`CancelToken`]. The drivers
//! thread the limits into a [`Gauge`] ticked once per event popped off
//! the scheduled driver's event queue (and once per op instance in the
//! serialized drivers, which have no queue); a tripped gauge surfaces as
//! `PimError::BudgetExhausted` or `PimError::Cancelled` from
//! `Engine::execute`.
//!
//! Determinism: the fuel and deadline budgets are measured in *simulated*
//! quantities — retired events and simulated seconds — never wall clock,
//! so whether a bounded run completes or trips, and after how many
//! events, is a pure function of the request. Only the [`CancelToken`]
//! is asynchronous (it exists to interrupt a wedged run from another
//! thread), and it is checked on a coarse event mask so the fault-free
//! hot path stays within its <5% budget. Partitioned runs give each
//! partition an independent gauge over the same limits (a shared atomic
//! counter would make the trip point depend on worker interleaving);
//! the token is shared, so one cancel stops every partition.
//!
//! Completed runs are budget-independent: the gauge only ever *stops*
//! execution, it never reorders or re-times it, so a run that finishes
//! under its limits is byte-identical to the unbounded run (the
//! differential guard in the engine tests pins this).

use pim_common::units::Seconds;
use pim_common::{PimError, Result};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// How many events pass between checks of the (asynchronous) cancel
/// token. Budget checks are exact; only the token is coarse.
const CANCEL_CHECK_MASK: u64 = 63;

/// A shareable cancellation handle: clone it, hand one side to the run,
/// call [`CancelToken::cancel`] from anywhere to stop it at the next
/// check site.
#[derive(Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl std::fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CancelToken")
            .field("cancelled", &self.is_cancelled())
            .finish()
    }
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation; every run holding a clone of this token
    /// stops at its next check site.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// Execution bounds for one run. The default is unbounded — and
/// [`RunLimits::none`] requests are routed through gauges that compare
/// against `u64::MAX`/`+inf`, so the fault-free hot path pays only the
/// per-event increment.
#[derive(Debug, Clone, Default)]
pub struct RunLimits {
    /// Fuel: the maximum number of events the run may retire. For the
    /// event-driven driver an event is one pop off its event queue; for
    /// the serialized drivers, one op attempt.
    pub max_events: Option<u64>,
    /// Simulated-time horizon: the run stops once the simulation clock
    /// passes this point.
    pub deadline: Option<Seconds>,
    /// Asynchronous cancellation handle.
    pub cancel: Option<CancelToken>,
}

impl RunLimits {
    /// Unbounded (the default).
    pub fn none() -> Self {
        RunLimits::default()
    }

    /// Whether every bound is absent.
    pub fn is_none(&self) -> bool {
        self.max_events.is_none() && self.deadline.is_none() && self.cancel.is_none()
    }

    /// Returns the limits with an event-count fuel budget.
    #[must_use]
    pub fn with_max_events(mut self, max_events: u64) -> Self {
        self.max_events = Some(max_events);
        self
    }

    /// Returns the limits with a simulated-time deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Seconds) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Returns the limits carrying (a clone of) a cancel token.
    #[must_use]
    pub fn with_cancel(mut self, token: &CancelToken) -> Self {
        self.cancel = Some(token.clone());
        self
    }

    /// Builds the per-run gauge the drivers tick.
    pub(crate) fn gauge(&self) -> Gauge {
        Gauge {
            events: 0,
            max_events: self.max_events.unwrap_or(u64::MAX),
            deadline: self.deadline.unwrap_or(Seconds::new(f64::INFINITY)),
            cancel: self.cancel.as_ref().map(|t| t.flag.clone()),
        }
    }
}

/// The per-run fuel/deadline/cancellation gauge. One per driver
/// invocation; never shared across partitions.
pub(crate) struct Gauge {
    events: u64,
    max_events: u64,
    deadline: Seconds,
    cancel: Option<Arc<AtomicBool>>,
}

impl Gauge {
    /// Accounts one retired event at simulated time `now` and trips when
    /// a bound is exceeded.
    ///
    /// # Errors
    ///
    /// `PimError::BudgetExhausted` when the fuel or deadline budget is
    /// exceeded, `PimError::Cancelled` when the token fired.
    #[inline]
    pub fn tick(&mut self, now: Seconds) -> Result<()> {
        self.events += 1;
        if self.events > self.max_events {
            return Err(PimError::BudgetExhausted {
                budget: "events",
                limit: self.max_events,
            });
        }
        if now > self.deadline {
            return Err(PimError::BudgetExhausted {
                budget: "deadline-us",
                limit: (self.deadline.seconds() * 1e6) as u64,
            });
        }
        if let Some(flag) = &self.cancel {
            if self.events & CANCEL_CHECK_MASK == 0 && flag.load(Ordering::Relaxed) {
                return Err(PimError::Cancelled {
                    after_events: self.events,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_gauge_never_trips() {
        let mut g = RunLimits::none().gauge();
        for _ in 0..10_000 {
            g.tick(Seconds::new(1e12)).unwrap();
        }
    }

    #[test]
    fn fuel_budget_trips_exactly_at_the_limit() {
        let mut g = RunLimits::none().with_max_events(3).gauge();
        for _ in 0..3 {
            g.tick(Seconds::ZERO).unwrap();
        }
        let err = g.tick(Seconds::ZERO).unwrap_err();
        assert_eq!(
            err,
            PimError::BudgetExhausted {
                budget: "events",
                limit: 3
            }
        );
    }

    #[test]
    fn deadline_trips_once_the_clock_passes_it() {
        let mut g = RunLimits::none().with_deadline(Seconds::new(1.0)).gauge();
        g.tick(Seconds::new(0.5)).unwrap();
        g.tick(Seconds::new(1.0)).unwrap();
        let err = g.tick(Seconds::new(1.5)).unwrap_err();
        assert!(matches!(
            err,
            PimError::BudgetExhausted {
                budget: "deadline-us",
                ..
            }
        ));
    }

    #[test]
    fn cancel_token_stops_at_the_next_masked_check() {
        let token = CancelToken::new();
        let mut g = RunLimits::none().with_cancel(&token).gauge();
        for _ in 0..100 {
            g.tick(Seconds::ZERO).unwrap();
        }
        token.cancel();
        let mut tripped = None;
        for _ in 0..=CANCEL_CHECK_MASK {
            if let Err(e) = g.tick(Seconds::ZERO) {
                tripped = Some(e);
                break;
            }
        }
        let Some(PimError::Cancelled { after_events }) = tripped else {
            panic!("cancel never observed within one mask period: {tripped:?}");
        };
        assert!(after_events > 100 && after_events <= 101 + CANCEL_CHECK_MASK);
        assert!(token.is_cancelled());
    }

    #[test]
    fn token_clones_share_one_flag() {
        let a = CancelToken::new();
        let b = a.clone();
        assert!(!b.is_cancelled());
        a.cancel();
        assert!(b.is_cancelled());
    }
}
