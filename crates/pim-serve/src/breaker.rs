//! Per-tenant circuit breakers whose transitions are pure functions of
//! the request sequence.
//!
//! A breaker guards one tenant: repeated terminal failures
//! (`execution_failed`, `deadline_exceeded`) trip it open, an open
//! breaker rejects admissions with `breaker_open` until a cooldown
//! elapses, then a single probe request is admitted and its outcome
//! decides between closing and re-opening. Unlike classical wall-clock
//! breakers, both the strike window and the cooldown are counted in
//! protocol events — terminal outcomes observed at drain barriers and
//! rejected admissions respectively — so the whole trajectory is a pure
//! function of the request sequence and rejection streams byte-replay
//! across processes and worker counts.
//!
//! The daemon integration has two call sites:
//!
//! * [`BreakerSet::admit`] at admission time, after the cache lookup
//!   and the coalescing check (cache hits and coalescers start no new
//!   computation, never strike, and are never rejected) and before the
//!   admission queue, and
//! * [`BreakerSet::observe`] at drain barriers, once per terminal
//!   outcome of a slot that held an admission slot, in submission order.
//!
//! Outcomes of runs admitted *before* a breaker opened can drain while
//! it is open or half-open; they are stale and ignored — only the probe
//! (marked at admission by [`Admission::AdmitProbe`]) resolves a
//! half-open breaker.

use std::collections::BTreeMap;

/// Breaker tuning. The defaults (5 strikes to open, 16 rejected
/// admissions to half-open) are loose enough that ordinary traffic —
/// including every fault-injecting test in the repo — never trips.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive terminal failures that open the breaker. `0` disables
    /// breakers entirely.
    pub threshold: u32,
    /// Rejected admissions an open breaker absorbs before admitting a
    /// probe.
    pub cooldown: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            threshold: 5,
            cooldown: 16,
        }
    }
}

/// One tenant's breaker state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Admitting normally; `strikes` consecutive failures so far.
    Closed {
        /// Consecutive terminal failures since the last success.
        strikes: u32,
    },
    /// Rejecting; `remaining` more rejections until half-open.
    Open {
        /// Rejected admissions left before the breaker goes half-open.
        remaining: u32,
    },
    /// One probe decides: `probing` is true while it is in flight.
    HalfOpen {
        /// Whether the probe has been admitted and awaits its outcome.
        probing: bool,
    },
}

/// What the breaker decided about one admission attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Admit normally.
    Admit,
    /// Admit as the half-open probe; its terminal outcome must be
    /// reported via [`BreakerSet::observe`] with `probe = true`.
    AdmitProbe,
    /// Reject with `breaker_open`.
    Reject,
}

/// The per-tenant breaker map.
#[derive(Debug)]
pub struct BreakerSet {
    cfg: BreakerConfig,
    tenants: BTreeMap<String, BreakerState>,
}

impl BreakerSet {
    /// An empty set under `cfg`; tenants materialize on first admission.
    pub fn new(cfg: BreakerConfig) -> Self {
        BreakerSet {
            cfg,
            tenants: BTreeMap::new(),
        }
    }

    /// The current state of a tenant's breaker (closed with zero strikes
    /// if never seen).
    pub fn state(&self, tenant: &str) -> BreakerState {
        self.tenants
            .get(tenant)
            .copied()
            .unwrap_or(BreakerState::Closed { strikes: 0 })
    }

    /// Decides one admission attempt for `tenant`, advancing the cooldown
    /// of an open breaker.
    pub fn admit(&mut self, tenant: &str) -> Admission {
        if self.cfg.threshold == 0 {
            return Admission::Admit;
        }
        let state = self
            .tenants
            .entry(tenant.to_string())
            .or_insert(BreakerState::Closed { strikes: 0 });
        match *state {
            BreakerState::Closed { .. } => Admission::Admit,
            BreakerState::Open { remaining } => {
                *state = if remaining <= 1 {
                    BreakerState::HalfOpen { probing: false }
                } else {
                    BreakerState::Open {
                        remaining: remaining - 1,
                    }
                };
                Admission::Reject
            }
            BreakerState::HalfOpen { probing: false } => {
                *state = BreakerState::HalfOpen { probing: true };
                Admission::AdmitProbe
            }
            BreakerState::HalfOpen { probing: true } => Admission::Reject,
        }
    }

    /// Un-marks an in-flight probe that was never actually admitted
    /// (e.g. the admission queue rejected it after the breaker said
    /// [`Admission::AdmitProbe`]); the next admission retries the probe.
    pub fn probe_aborted(&mut self, tenant: &str) {
        if let Some(state) = self.tenants.get_mut(tenant) {
            if *state == (BreakerState::HalfOpen { probing: true }) {
                *state = BreakerState::HalfOpen { probing: false };
            }
        }
    }

    /// Reports the terminal outcome of an admitted run, observed at a
    /// drain barrier. `probe` marks the run admitted via
    /// [`Admission::AdmitProbe`]. Non-probe outcomes are ignored unless
    /// the breaker is closed — they belong to runs admitted before it
    /// opened.
    pub fn observe(&mut self, tenant: &str, ok: bool, probe: bool) {
        if self.cfg.threshold == 0 {
            return;
        }
        let Some(state) = self.tenants.get_mut(tenant) else {
            return;
        };
        match *state {
            BreakerState::Closed { strikes } => {
                *state = if ok {
                    BreakerState::Closed { strikes: 0 }
                } else if strikes + 1 >= self.cfg.threshold {
                    BreakerState::Open {
                        remaining: self.cfg.cooldown,
                    }
                } else {
                    BreakerState::Closed {
                        strikes: strikes + 1,
                    }
                };
            }
            BreakerState::HalfOpen { probing: true } if probe => {
                *state = if ok {
                    BreakerState::Closed { strikes: 0 }
                } else {
                    BreakerState::Open {
                        remaining: self.cfg.cooldown,
                    }
                };
            }
            // Stale outcomes (admitted before the breaker opened) and
            // anything else: no transition.
            BreakerState::Open { .. } | BreakerState::HalfOpen { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> BreakerSet {
        BreakerSet::new(BreakerConfig {
            threshold: 2,
            cooldown: 3,
        })
    }

    #[test]
    fn stays_closed_under_successes_and_scattered_failures() {
        let mut b = tiny();
        for _ in 0..10 {
            assert_eq!(b.admit("t"), Admission::Admit);
            b.observe("t", false, false);
            assert_eq!(b.admit("t"), Admission::Admit);
            b.observe("t", true, false); // success resets the strike count
        }
        assert_eq!(b.state("t"), BreakerState::Closed { strikes: 0 });
    }

    #[test]
    fn consecutive_failures_open_then_cooldown_then_probe() {
        let mut b = tiny();
        for _ in 0..2 {
            assert_eq!(b.admit("t"), Admission::Admit);
            b.observe("t", false, false);
        }
        assert_eq!(b.state("t"), BreakerState::Open { remaining: 3 });
        // Cooldown counts rejected admissions, not wall clock.
        for _ in 0..3 {
            assert_eq!(b.admit("t"), Admission::Reject);
        }
        assert_eq!(b.state("t"), BreakerState::HalfOpen { probing: false });
        assert_eq!(b.admit("t"), Admission::AdmitProbe);
        // While the probe is out, everyone else is rejected.
        assert_eq!(b.admit("t"), Admission::Reject);
        b.observe("t", true, true);
        assert_eq!(b.state("t"), BreakerState::Closed { strikes: 0 });
        assert_eq!(b.admit("t"), Admission::Admit);
    }

    #[test]
    fn failed_probe_reopens_with_a_full_cooldown() {
        let mut b = tiny();
        for _ in 0..2 {
            b.admit("t");
            b.observe("t", false, false);
        }
        for _ in 0..3 {
            b.admit("t");
        }
        assert_eq!(b.admit("t"), Admission::AdmitProbe);
        b.observe("t", false, true);
        assert_eq!(b.state("t"), BreakerState::Open { remaining: 3 });
    }

    #[test]
    fn stale_outcomes_do_not_resolve_an_open_or_halfopen_breaker() {
        let mut b = tiny();
        for _ in 0..2 {
            b.admit("t");
            b.observe("t", false, false);
        }
        // A pre-open run draining now must not touch the cooldown.
        b.observe("t", true, false);
        assert_eq!(b.state("t"), BreakerState::Open { remaining: 3 });
        for _ in 0..3 {
            b.admit("t");
        }
        b.admit("t"); // probe out
        b.observe("t", true, false); // stale non-probe success: ignored
        assert_eq!(b.state("t"), BreakerState::HalfOpen { probing: true });
    }

    #[test]
    fn aborted_probe_is_retried_on_the_next_admission() {
        let mut b = tiny();
        for _ in 0..2 {
            b.admit("t");
            b.observe("t", false, false);
        }
        for _ in 0..3 {
            b.admit("t");
        }
        assert_eq!(b.admit("t"), Admission::AdmitProbe);
        b.probe_aborted("t");
        assert_eq!(b.admit("t"), Admission::AdmitProbe);
        b.observe("t", true, true);
        assert_eq!(b.state("t"), BreakerState::Closed { strikes: 0 });
    }

    #[test]
    fn tenants_are_independent() {
        let mut b = tiny();
        for _ in 0..2 {
            b.admit("bad");
            b.observe("bad", false, false);
        }
        assert_eq!(b.admit("bad"), Admission::Reject);
        assert_eq!(b.admit("good"), Admission::Admit);
    }

    #[test]
    fn zero_threshold_disables_everything() {
        let mut b = BreakerSet::new(BreakerConfig {
            threshold: 0,
            cooldown: 0,
        });
        for _ in 0..100 {
            assert_eq!(b.admit("t"), Admission::Admit);
            b.observe("t", false, false);
        }
        assert_eq!(b.state("t"), BreakerState::Closed { strikes: 0 });
    }
}
