//! # hetero-pim
//!
//! A full-system Rust reproduction of *Processing-in-Memory for
//! Energy-efficient Neural Network Training: A Heterogeneous Approach*
//! (MICRO 2018).
//!
//! This facade crate re-exports the workspace crates under one roof so that
//! examples and downstream users can depend on a single package:
//!
//! * [`common`] — identifiers, units, errors,
//! * [`mem`] — 3D die-stacked (HMC 2.0) and planar DRAM models,
//! * [`tensor`] — tensors, NN training ops, analytic cost characterization,
//! * [`graph`] — dataflow graphs with dependency tracking and eager execution,
//! * [`models`] — the seven evaluated training workloads,
//! * [`hw`] — CPU/GPU/fixed-function-PIM/programmable-PIM device models,
//! * [`opencl`] — the extended OpenCL programming model,
//! * [`runtime`] — the profiling-based scheduler and discrete-event engine,
//! * [`sim`] — system configurations and the paper-experiment harness,
//! * [`verify`] — multi-pass static checker for graphs, binaries,
//!   schedules, and reports.
//!
//! # Quickstart
//!
//! ```
//! use hetero_pim::models::{Model, ModelKind};
//! use hetero_pim::runtime::engine::SystemPreset;
//! use hetero_pim::sim::simulate;
//!
//! # fn main() -> pim_common::Result<()> {
//! let model = Model::build_with_batch(ModelKind::AlexNet, 8)?;
//! let report = simulate(&model, &SystemPreset::Hetero.into(), 2)?;
//! assert!(report.makespan.seconds() > 0.0);
//! # Ok(())
//! # }
//! ```
#![forbid(unsafe_code)]

pub use pim_common as common;
pub use pim_graph as graph;
pub use pim_hw as hw;
pub use pim_mem as mem;
pub use pim_models as models;
pub use pim_opencl as opencl;
pub use pim_runtime as runtime;
pub use pim_sim as sim;
pub use pim_tensor as tensor;
pub use pim_verify as verify;
