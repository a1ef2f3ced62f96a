//! Mixed-workload co-running (§VI-F, Fig. 16).
//!
//! A CNN model and a non-CNN model (LSTM or Word2vec) train in the same
//! system. Under "Sequential Execution" the two runs happen back to back;
//! under "Hetero PIM" the runtime interleaves them — the CNN subject to the
//! normal scheduling, the non-CNN restricted to CPU and the programmable
//! PIM when they are idle.

use pim_common::units::Seconds;
use pim_common::Result;
use pim_models::{Model, ModelKind};
use pim_runtime::engine::{Engine, EngineConfig, RunRequest, SystemPreset, WorkloadSpec};
use serde::Serialize;

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
/// non-CNN steps fit a comparable duration.
///
/// # Errors
///
/// Propagates engine failures.
pub fn corun(cnn: ModelKind, other: ModelKind, cnn_steps: usize) -> Result<CoRunResult> {
    let cnn_model = Model::build_with_batch(cnn, cnn.paper_batch_size().min(32))?;
    let other_model = Model::build(other)?;
    let engine = Engine::new(EngineConfig::preset(SystemPreset::Hetero));
    let makespan = |workloads: &[WorkloadSpec<'_>]| -> Result<Seconds> {
        Ok(engine
            .execute(&RunRequest::new(workloads))?
            .report()
            .makespan)
    };
    let cnn_spec = WorkloadSpec {
        graph: cnn_model.graph(),
        steps: cnn_steps,
        cpu_progr_only: false,
    };
    let other_spec = |steps| WorkloadSpec {
        graph: other_model.graph(),
        steps,
        cpu_progr_only: true,
    };

    // Size the non-CNN run to a comparable duration (its steps are much
    // shorter than CNN steps).
    let cnn_alone = makespan(&[cnn_spec])?;
    let other_probe = makespan(&[other_spec(1)])?;
    let other_steps = ((cnn_alone.seconds() * 0.8) / other_probe.seconds().max(1e-9))
        .ceil()
        .max(1.0) as usize;

    let sequential = cnn_alone + makespan(&[other_spec(other_steps)])?;
    let corun = makespan(&[cnn_spec, other_spec(other_steps)])?;

    Ok(CoRunResult {
        cnn,
        other,
        sequential_seconds: sequential.seconds(),
        corun_seconds: corun.seconds(),
    })
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
