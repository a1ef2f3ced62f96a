//! Chrome-trace export of one engine run (`repro --trace <path>`).
//!
//! Runs a model under a system preset with span recording on and renders
//! the [`pim_runtime`] observability layer's recording as Chrome
//! trace-event JSON (loadable in `chrome://tracing` and Perfetto). All
//! timestamps are simulated time, so the export is byte-identical across
//! runs.

use pim_common::Result;
use pim_models::{Model, ModelKind};
use pim_runtime::engine::{
    Engine, EngineConfig, RunOptions, RunRequest, SystemPreset, WorkloadSpec,
};

/// Simulates `steps` training steps of `kind` at `batch` under `preset`
/// and returns the run's Chrome trace-event JSON.
///
/// # Examples
///
/// ```
/// use pim_models::ModelKind;
/// use pim_runtime::engine::SystemPreset;
///
/// # fn main() -> pim_common::Result<()> {
/// let json = pim_sim::chrome::chrome_trace(ModelKind::AlexNet, 2, 1, SystemPreset::Hetero)?;
/// assert!(pim_common::trace::validate_chrome_trace(&json).is_clean());
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Propagates model-build and engine failures.
pub fn chrome_trace(
    kind: ModelKind,
    batch: usize,
    steps: usize,
    preset: SystemPreset,
) -> Result<String> {
    let model = Model::build_with_batch(kind, batch)?;
    let engine = Engine::new(EngineConfig::preset(preset));
    let opts = RunOptions {
        trace: true,
        ..RunOptions::default()
    };
    let out = engine.execute(
        &RunRequest::new(&[WorkloadSpec {
            graph: model.graph(),
            steps,
            cpu_progr_only: false,
        }])
        .with_options(opts),
    )?;
    let recording = out
        .trace
        .expect("a shared run with `trace: true` always returns its recording");
    Ok(recording.to_chrome_json())
}
