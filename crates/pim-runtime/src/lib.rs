//! The heterogeneous-PIM runtime system (§III-C, §IV).
//!
//! * [`profiler`] — step-1 profiling on the CPU device model,
//! * [`select`] — the global-index candidate-selection algorithm (x = 90%)
//!   and the Fig. 2 four-quadrant classification,
//! * [`engine`] — the placement policy (three scheduling principles) and
//!   the discrete-event simulator, with recursive-kernel (RC) and
//!   operation-pipeline (OP) toggles, behind two calls:
//!   [`Engine::execute`] runs a [`RunRequest`] and [`Engine::verify`]
//!   replays its timeline; its event core also drives the `pim-sim`
//!   baselines,
//! * [`par`] — fork-join helper (independent simulations across threads,
//!   deterministic order; `PIM_RUN_THREADS=1` runs them serially),
//! * [`sync`] — synchronization-cost constants and kernel-call granularity,
//! * [`verify`] — schedule-legality replay over recorded timelines; backs
//!   the engine's debug-mode assertions and the `pim-verify` checker,
//! * [`fuzz`] — the [`fuzz::TieBreak`] order policy and the pass-5
//!   order-invariance fuzz driver (seeded tie permutations must not change
//!   the report),
//! * [`search`] — beam search over the [`fuzz::TieBreak::Priority`] order
//!   space, reporting the best-found makespan vs the paper heuristic,
//! * [`stats`] — execution reports (time breakdown, energy, utilization).
//!
//! # Examples
//!
//! ```
//! use pim_runtime::engine::{Engine, EngineConfig, RunRequest, SystemPreset, WorkloadSpec};
//! use pim_models::{Model, ModelKind};
//!
//! # fn main() -> pim_common::Result<()> {
//! let model = Model::build_with_batch(ModelKind::AlexNet, 2)?;
//! let workload = WorkloadSpec { graph: model.graph(), steps: 2, cpu_progr_only: false };
//!
//! let request = RunRequest::new(&[workload]);
//! let hetero = Engine::new(EngineConfig::preset(SystemPreset::Hetero)).execute(&request)?;
//! let cpu = Engine::new(EngineConfig::preset(SystemPreset::CpuOnly)).execute(&request)?;
//! assert!(hetero.report().makespan < cpu.report().makespan);
//! # Ok(())
//! # }
//! ```
#![forbid(unsafe_code)]

pub mod engine;
pub mod fuzz;
pub mod par;
pub mod profiler;
pub mod search;
pub mod select;
pub mod stats;
pub mod sync;
pub mod verify;

pub use engine::{
    Engine, EngineConfig, Partitioning, PlanRow, ProgrBackend, ResourceClass, RunLimits,
    RunOptions, RunOutput, RunRequest, SystemMode, SystemPreset, TimelineEntry, WorkloadSpec,
};
pub use fuzz::TieBreak;
pub use stats::ExecutionReport;
