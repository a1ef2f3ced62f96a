//! Mixed-workload co-running (§VI-F, Fig. 16).
//!
//! A CNN model and a non-CNN model (LSTM or Word2vec) train in the same
//! system. Under "Sequential Execution" the two runs happen back to back;
//! under "Hetero PIM" the runtime interleaves them — the CNN subject to the
//! normal scheduling, the non-CNN restricted to CPU and the programmable
//! PIM when they are idle.

use crate::cache;
use pim_common::units::Seconds;
use pim_common::Result;
use pim_models::{Model, ModelKind};
use pim_runtime::engine::{Engine, EngineConfig, RunRequest, SystemPreset, WorkloadSpec};
use pim_runtime::par::{par_map, par_map_claiming};
use serde::Serialize;
use std::cmp::Reverse;
use std::sync::Arc;

/// Result of one co-run case.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CoRunResult {
    /// The CNN workload.
    pub cnn: ModelKind,
    /// The non-CNN workload.
    pub other: ModelKind,
    /// Back-to-back makespan in seconds.
    pub sequential_seconds: f64,
    /// Co-scheduled makespan in seconds.
    pub corun_seconds: f64,
}

impl CoRunResult {
    /// Speedup of co-running over sequential execution, minus one
    /// (the paper's "performance improvement").
    pub fn improvement(&self) -> f64 {
        self.sequential_seconds / self.corun_seconds - 1.0
    }
}

/// Runs one co-run case: `cnn_steps` CNN steps against however many
/// non-CNN steps fit a comparable duration. This is [`corun_cases`] over
/// one case.
///
/// # Errors
///
/// Propagates engine failures.
pub fn corun(cnn: ModelKind, other: ModelKind, cnn_steps: usize) -> Result<CoRunResult> {
    let mut results = corun_cases(&[(cnn, other)], cnn_steps)?;
    Ok(results.remove(0))
}

/// One model's run alone in phase 1 of [`corun_cases`]: a CNN for the
/// case's steps, or a co-runner (restricted to the CPU and programmable
/// PIM) for the one-step probe that sizes it.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Solo {
    kind: ModelKind,
    corunner: bool,
}

impl Solo {
    /// The model the solo runs: a CNN at its paper batch capped at 32, a
    /// co-runner at its paper batch. Both come from the sweep's model
    /// cache, so a figure's cases share one build (and one graph memo) per
    /// model with each other and with the rest of `repro all`.
    fn model(self) -> Result<Arc<Model>> {
        let paper = self.kind.paper_batch_size();
        cache::model_with_batch(self.kind, if self.corunner { paper } else { paper.min(32) })
    }

    /// The solo's workload over `model` for `steps` steps.
    fn spec(self, model: &Model, steps: usize) -> WorkloadSpec<'_> {
        WorkloadSpec {
            graph: model.graph(),
            steps,
            cpu_progr_only: self.corunner,
        }
    }
}

/// Runs co-run cases as one fan-out in two phases, returning one result
/// per case in case order.
///
/// Phase 1 runs each distinct model alone once, however many cases share
/// it: every CNN for `cnn_steps` steps, every co-runner for a one-step
/// probe. Each case then sizes its co-runner to a comparable duration (its
/// steps are much shorter than CNN steps). Phase 2 runs every case's sized
/// co-runner alone and its co-run, heaviest (most op instances) claimed
/// first, so the longest run starts first rather than at the end of one
/// case's serial chain.
///
/// # Errors
///
/// Propagates engine failures.
pub fn corun_cases(cases: &[(ModelKind, ModelKind)], cnn_steps: usize) -> Result<Vec<CoRunResult>> {
    let engine = Engine::new(EngineConfig::preset(SystemPreset::Hetero));
    let makespan = |workloads: &[WorkloadSpec<'_>]| -> Result<Seconds> {
        Ok(engine
            .execute(&RunRequest::new(workloads))?
            .report()
            .makespan)
    };
    // Phase 1: each distinct solo once; `slots` holds each case's
    // (CNN, co-runner) rows in `solos`.
    let mut solos: Vec<Solo> = Vec::new();
    let mut slot = |solo: Solo| {
        solos.iter().position(|&s| s == solo).unwrap_or_else(|| {
            solos.push(solo);
            solos.len() - 1
        })
    };
    let slots: Vec<(usize, usize)> = cases
        .iter()
        .map(|&(cnn, other)| {
            (
                slot(Solo {
                    kind: cnn,
                    corunner: false,
                }),
                slot(Solo {
                    kind: other,
                    corunner: true,
                }),
            )
        })
        .collect();
    let alone = par_map(&solos, |&solo| -> Result<(Arc<Model>, Seconds)> {
        let model = solo.model()?;
        let steps = if solo.corunner { 1 } else { cnn_steps };
        let seconds = makespan(&[solo.spec(&model, steps)])?;
        Ok((model, seconds))
    })
    .into_iter()
    .collect::<Result<Vec<_>>>()?;

    // Phase 2: per case, the sized co-runner alone (`false`) and the
    // co-run (`true`).
    let other_steps: Vec<usize> = slots
        .iter()
        .map(|&(c, o)| {
            ((alone[c].1.seconds() * 0.8) / alone[o].1.seconds().max(1e-9))
                .ceil()
                .max(1.0) as usize
        })
        .collect();
    let runs: Vec<(usize, bool)> = (0..cases.len())
        .flat_map(|case| [(case, false), (case, true)])
        .collect();
    let instances = |&(case, with_cnn): &(usize, bool)| {
        let (c, o) = slots[case];
        let ops = |row: usize| alone[row].0.graph().op_count();
        other_steps[case] * ops(o) + if with_cnn { cnn_steps * ops(c) } else { 0 }
    };
    let mut order: Vec<usize> = (0..runs.len()).collect();
    order.sort_by_key(|&run| Reverse(instances(&runs[run])));
    let spans = par_map_claiming(&runs, &order, |&(case, with_cnn)| {
        let (c, o) = slots[case];
        let other = solos[o].spec(&alone[o].0, other_steps[case]);
        if with_cnn {
            makespan(&[solos[c].spec(&alone[c].0, cnn_steps), other])
        } else {
            makespan(&[other])
        }
    })
    .into_iter()
    .collect::<Result<Vec<_>>>()?;

    Ok(cases
        .iter()
        .zip(&slots)
        .zip(spans.chunks_exact(2))
        .map(|((&(cnn, other), &(c, _)), pair)| CoRunResult {
            cnn,
            other,
            sequential_seconds: (alone[c].1 + pair[0]).seconds(),
            corun_seconds: pair[1].seconds(),
        })
        .collect())
}

/// The six co-run cases of Fig. 16.
pub fn fig16_cases() -> [(ModelKind, ModelKind); 6] {
    [
        (ModelKind::Vgg19, ModelKind::Lstm),
        (ModelKind::Vgg19, ModelKind::Word2vec),
        (ModelKind::AlexNet, ModelKind::Lstm),
        (ModelKind::AlexNet, ModelKind::Word2vec),
        (ModelKind::InceptionV3, ModelKind::Lstm),
        (ModelKind::InceptionV3, ModelKind::Word2vec),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corun_beats_sequential_substantially() {
        // §VI-F: 69%-83% improvement; any improvement above ~50% shows the
        // overlap the paper attributes to cross-model independence.
        let r = corun(ModelKind::AlexNet, ModelKind::Word2vec, 2).unwrap();
        assert!(
            r.improvement() > 0.5,
            "improvement only {:.2}",
            r.improvement()
        );
        assert!(r.corun_seconds < r.sequential_seconds);
    }

    #[test]
    fn all_six_cases_are_distinct() {
        let cases = fig16_cases();
        for (cnn, other) in cases {
            assert!(cnn.is_cnn());
            assert!(!other.is_cnn());
        }
    }
}
