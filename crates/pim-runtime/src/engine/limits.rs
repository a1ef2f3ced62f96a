//! Deterministic execution budgets.
//!
//! A [`RunRequest`](super::RunRequest) may carry [`RunLimits`]: an
//! event-count fuel budget (`max_events`). The drivers thread the limits
//! into a [`Gauge`] ticked once per event popped off the scheduled
//! driver's event queue (and once per op attempt in the serialized
//! driver, which has no queue); a tripped gauge surfaces as
//! `PimError::BudgetExhausted` from `Engine::execute`.
//!
//! Determinism: the budget is measured in a *simulated* quantity —
//! retired events — never wall clock, so whether a bounded run completes
//! or trips, and after how many events, is a pure function of the
//! request. Partitioned runs give each partition an independent gauge
//! over the same limits (a shared atomic counter would make the trip
//! point depend on worker interleaving).
//!
//! Completed runs are budget-independent: the gauge only ever *stops*
//! execution, it never reorders or re-times it, so a run that finishes
//! under its limits is byte-identical to the unbounded run (the
//! differential guard in the engine tests pins this).

use pim_common::{PimError, Result};

/// Execution bounds for one run. The default is unbounded, and an
/// unbounded gauge compares against `u64::MAX`, so the fault-free hot
/// path pays only the per-event increment and one compare.
#[derive(Debug, Clone, Default)]
pub struct RunLimits {
    /// Fuel: the maximum number of events the run may retire. For the
    /// event-driven driver an event is one pop off its event queue; for
    /// the serialized driver, one op attempt.
    pub max_events: Option<u64>,
}

impl RunLimits {
    /// Unbounded (the default).
    pub fn none() -> Self {
        RunLimits::default()
    }

    /// Returns the limits with an event-count fuel budget.
    #[must_use]
    pub fn with_max_events(mut self, max_events: u64) -> Self {
        self.max_events = Some(max_events);
        self
    }

    /// Builds the per-run gauge the drivers tick.
    pub(crate) fn gauge(&self) -> Gauge {
        Gauge {
            events: 0,
            max_events: self.max_events.unwrap_or(u64::MAX),
        }
    }
}

/// The per-run fuel gauge. One per driver invocation; never shared across
/// partitions.
pub(crate) struct Gauge {
    events: u64,
    max_events: u64,
}

impl Gauge {
    /// Accounts one retired event and trips when the fuel is exceeded.
    ///
    /// # Errors
    ///
    /// `PimError::BudgetExhausted` when the fuel budget is exceeded.
    #[inline]
    pub fn tick(&mut self) -> Result<()> {
        self.events += 1;
        if self.events > self.max_events {
            return Err(PimError::BudgetExhausted {
                budget: "events",
                limit: self.max_events,
            });
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
            g.tick().unwrap();
        }
    }

    #[test]
    fn fuel_budget_trips_exactly_at_the_limit() {
        let mut g = RunLimits::none().with_max_events(3).gauge();
        for _ in 0..3 {
            g.tick().unwrap();
        }
        let err = g.tick().unwrap_err();
        assert_eq!(
            err,
            PimError::BudgetExhausted {
                budget: "events",
                limit: 3
            }
        );
    }
}
