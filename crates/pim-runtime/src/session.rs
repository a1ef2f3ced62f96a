//! The framework-facing training session (the TensorFlow-runtime
//! extension of §IV-C).
//!
//! "Our runtime scheduler profiles the first step of training to obtain
//! operation characterization. It then performs dynamic scheduling of
//! operations across CPU, programmable PIM, and fixed-function PIMs in the
//! rest of the training steps."

use crate::engine::{Engine, EngineConfig, RunRequest, WorkloadSpec};
use crate::profiler::{profile_step, StepProfile};
use crate::select::{select_candidates, CandidateSet};
use crate::stats::ExecutionReport;
use pim_common::Result;
use pim_graph::Graph;

/// A training session bound to one model graph and one system
/// configuration.
///
/// # Examples
///
/// ```
/// use pim_runtime::engine::{EngineConfig, SystemPreset};
/// use pim_runtime::session::TrainingSession;
/// use pim_models::{Model, ModelKind};
///
/// # fn main() -> pim_common::Result<()> {
/// let model = Model::build_with_batch(ModelKind::AlexNet, 2)?;
/// let session = TrainingSession::new(model.graph(), EngineConfig::preset(SystemPreset::Hetero))?;
/// // The first step profiled; candidates chosen by the global index.
/// assert!(session.candidates().time_coverage >= 0.90);
/// let report = session.train(3)?;
/// assert!(report.is_well_formed());
/// # Ok(())
/// # }
/// ```
pub struct TrainingSession<'g> {
    graph: &'g Graph,
    engine: Engine,
    profile: StepProfile,
    candidates: CandidateSet,
}

impl<'g> TrainingSession<'g> {
    /// Creates a session: runs the step-1 profile on the configuration's
    /// host CPU ([`EngineConfig::host`]) and selects offload candidates.
    ///
    /// # Errors
    ///
    /// Propagates profiling failures.
    pub fn new(graph: &'g Graph, config: EngineConfig) -> Result<Self> {
        let coverage = config.coverage;
        let engine = Engine::new(config);
        let profile = profile_step(graph, engine.profiling_device())?;
        let candidates = select_candidates(&profile, coverage);
        Ok(TrainingSession {
            graph,
            engine,
            profile,
            candidates,
        })
    }

    /// The step-1 profile.
    pub fn profile(&self) -> &StepProfile {
        &self.profile
    }

    /// The selected offload candidates.
    pub fn candidates(&self) -> &CandidateSet {
        &self.candidates
    }

    /// Simulates `steps` training steps under the session's configuration
    /// (the profiling step is charged as one extra CPU-serialized step's
    /// worth of time in the paper but is negligible against thousands of
    /// steps; it is excluded here as the paper's figures do).
    ///
    /// # Errors
    ///
    /// Propagates engine failures.
    pub fn train(&self, steps: usize) -> Result<ExecutionReport> {
        Ok(self
            .engine
            .execute(&RunRequest::new(&[WorkloadSpec {
                graph: self.graph,
                steps,
                cpu_progr_only: false,
            }]))?
            .into_report())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SystemPreset;
    use pim_models::{Model, ModelKind};

    #[test]
    fn session_profiles_once_and_trains() {
        let model = Model::build_with_batch(ModelKind::Dcgan, 4).unwrap();
        let session =
            TrainingSession::new(model.graph(), EngineConfig::preset(SystemPreset::Hetero))
                .unwrap();
        assert_eq!(session.profile().ops.len(), model.graph().op_count());
        let r2 = session.train(2).unwrap();
        let r4 = session.train(4).unwrap();
        assert!(r4.makespan > r2.makespan);
    }

    #[test]
    fn session_profiles_on_the_configured_host() {
        use pim_hw::cpu::CpuDevice;
        let model = Model::build_with_batch(ModelKind::AlexNet, 2).unwrap();
        let mut params = CpuDevice::xeon_e5_2630_v3().params().clone();
        params.name = "FastHost";
        params.ma_throughput *= 2.0;
        params.other_throughput *= 2.0;
        let fast_cfg =
            EngineConfig::preset(SystemPreset::Hetero).with_host_cpu(CpuDevice::custom(params));
        let fast = TrainingSession::new(model.graph(), fast_cfg).unwrap();
        let base = TrainingSession::new(model.graph(), EngineConfig::preset(SystemPreset::Hetero))
            .unwrap();
        assert!(fast.profile().total_time() < base.profile().total_time());
    }

    #[test]
    fn candidate_set_is_reused_across_training_calls() {
        let model = Model::build_with_batch(ModelKind::AlexNet, 2).unwrap();
        let session =
            TrainingSession::new(model.graph(), EngineConfig::preset(SystemPreset::Hetero))
                .unwrap();
        let before = session.candidates().ranked.clone();
        session.train(1).unwrap();
        assert_eq!(before, session.candidates().ranked);
    }
}
