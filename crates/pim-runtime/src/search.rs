//! Beam search over the schedule-order space: how much makespan does
//! the paper's greedy heuristic leave on the table?
//!
//! [`crate::fuzz::TieBreak::Priority`] turns the dispatch priority
//! inside open pipeline windows into a seeded degree of freedom — every
//! order is legal (dependencies, windows, and resource exclusivity are
//! still enforced by the drivers), but the schedule, and hence the
//! makespan, changes. [`beam_search`] explores that space with a beam:
//! each round evaluates a frontier of candidate orders in parallel,
//! keeps the `beam_width` best, and derives the next frontier from
//! them. Seeds have no neighborhood structure (the per-decision hashes
//! avalanche), so the beam behaves as stochastic search with elitist
//! restarts — the point is the *bound*, not the trajectory: the
//! best-found makespan versus the stable heuristic is reported as the
//! "oracle gap" (`repro search` prints it per model), and every
//! best-found timeline must still pass the `pim-verify` legality
//! replay.

use crate::engine::{Engine, RunOptions, RunRequest, TimelineEntry, WorkloadSpec};
use crate::fuzz::{splitmix, TieBreak};
use pim_common::units::Seconds;
use pim_common::{PimError, Result};

/// Knobs for one [`beam_search`] invocation.
#[derive(Debug, Clone, Copy)]
pub struct SearchConfig {
    /// Orders retained between rounds.
    pub beam_width: usize,
    /// Search rounds after the initial frontier.
    pub rounds: usize,
    /// Child orders derived per retained order each round.
    pub branching: usize,
    /// Base seed for the initial frontier.
    pub seed: u64,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            beam_width: 4,
            rounds: 3,
            branching: 8,
            seed: 1,
        }
    }
}

/// The result of one beam search over a workload set.
#[derive(Debug)]
pub struct SearchOutcome {
    /// Makespan of the stable (paper-heuristic) order.
    pub stable_makespan: Seconds,
    /// Best makespan found anywhere in the search.
    pub best_makespan: Seconds,
    /// The order that produced it ([`TieBreak::Stable`] when nothing
    /// beat the heuristic).
    pub best_order: TieBreak,
    /// Distinct orders evaluated (excluding the stable baseline).
    pub evaluated: usize,
    /// Timeline of the best order, for legality replay.
    pub best_timeline: Vec<TimelineEntry>,
}

impl SearchOutcome {
    /// The oracle gap: fraction of the stable makespan the best-found
    /// schedule saves (0 when the heuristic was never beaten).
    #[must_use]
    pub fn gap(&self) -> f64 {
        let stable = self.stable_makespan.seconds();
        if stable <= 0.0 {
            return 0.0;
        }
        ((stable - self.best_makespan.seconds()) / stable).max(0.0)
    }
}

/// Beam search over [`TieBreak::Priority`] seeds (see the module docs).
///
/// # Errors
///
/// Propagates engine failures from any evaluated order.
pub fn beam_search(
    engine: &Engine,
    workloads: &[WorkloadSpec<'_>],
    cfg: &SearchConfig,
) -> Result<SearchOutcome> {
    let stable = engine.execute(&RunRequest::new(workloads))?.into_report();
    let stable_makespan = stable.makespan;

    let mut seen = std::collections::HashSet::new();
    let mut pool: Vec<(u64, u64)> = Vec::new(); // (makespan fs, seed)
    let mut frontier: Vec<u64> = crate::fuzz::derive_seeds(cfg.seed, cfg.branching.max(1));
    frontier.retain(|&s| seen.insert(s));
    let mut evaluated = 0usize;

    for round in 0..=cfg.rounds {
        if frontier.is_empty() {
            break;
        }
        let results: Vec<Result<(u64, u64)>> = crate::par::par_map(&frontier, |&seed| {
            let opts = RunOptions {
                tie: TieBreak::Priority(seed),
                ..RunOptions::default()
            };
            let report = engine
                .execute(&RunRequest::new(workloads).with_options(opts))?
                .into_report();
            // Quantize exactly like the event clock so ordering is
            // platform-stable.
            Ok(((report.makespan.seconds() * 1e15) as u64, seed))
        });
        for r in results {
            pool.push(r?);
            evaluated += 1;
        }
        pool.sort_unstable();
        pool.truncate(cfg.beam_width.max(1));
        // Next frontier: children of the retained orders. Seeds carry no
        // locality, so children are fresh draws chained off each parent.
        frontier = pool
            .iter()
            .flat_map(|&(_, parent)| {
                (0..cfg.branching)
                    .map(move |k| splitmix(parent ^ splitmix((round as u64) << 32 | k as u64)))
            })
            .filter(|&s| !seen.contains(&s))
            .collect();
        frontier.dedup();
        frontier.retain(|&s| seen.insert(s));
    }

    let best = pool.first().copied();
    let (best_order, best_makespan) = match best {
        Some((fs, seed)) if Seconds::new(fs as f64 / 1e15) < stable_makespan => {
            (TieBreak::Priority(seed), None)
        }
        _ => (TieBreak::Stable, Some(stable_makespan)),
    };
    // Re-run the winner with a timeline for the legality replay (and to
    // read its exact, unquantized makespan).
    let opts = RunOptions {
        timeline: true,
        tie: best_order,
        ..RunOptions::default()
    };
    let mut out = engine.execute(&RunRequest::new(workloads).with_options(opts))?;
    let best_timeline = out
        .timeline
        .take()
        .ok_or_else(|| PimError::internal("timeline requested but not produced"))?;
    Ok(SearchOutcome {
        stable_makespan,
        best_makespan: best_makespan.unwrap_or(out.report().makespan),
        best_order,
        evaluated,
        best_timeline,
    })
}
