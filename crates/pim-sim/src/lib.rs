//! System configurations, baselines, and the experiment harness
//! regenerating every table and figure of the paper's evaluation.
//!
//! * [`configs`] — the five evaluated system configurations (§VI) and the
//!   [`simulate`] entry point,
//! * [`gpu`] — the GPU baseline step simulation (utilization, PCIe staging,
//!   working-set spill),
//! * [`baselines`] — the Neurocube comparison point (Fig. 10),
//! * [`ablations`] — coverage-parameter sweep, multi-cube scaling, and the
//!   §II-D GPU-attached-PIM estimate,
//! * [`chrome`] — Chrome trace-event export of an engine run's span
//!   recording (`repro --trace`),
//! * [`mixed`] — CNN + non-CNN co-running (§VI-F),
//! * [`report`] — CSV emission of the evaluation grid,
//! * [`experiments`] — one function per table/figure; the `repro` binary
//!   prints them,
//! * [`faults`] — the seeded fault-injection degradation sweep
//!   (`repro faults`): makespan/energy vs fault rate per preset,
//! * [`isa`] — the ISA-backend differential (`repro isa`): analytic vs
//!   interpreted programmable-PIM timing per model,
//! * [`orders`] — the order-invariance fuzz sweep (`repro fuzz`) and the
//!   beam-search oracle-gap table (`repro search`),
//! * [`serve`] — the engine-backed job runner, shared result store, and
//!   load harness behind the `pim-serve` daemon (`repro serve`).
//!
//! # Examples
//!
//! ```
//! use pim_sim::configs::{simulate, SystemConfig};
//! use pim_models::{Model, ModelKind};
//!
//! # fn main() -> pim_common::Result<()> {
//! let model = Model::build_with_batch(ModelKind::Dcgan, 8)?;
//! let hetero = simulate(&model, &SystemConfig::hetero_pim(), 2)?;
//! let cpu = simulate(&model, &SystemConfig::Cpu, 2)?;
//! assert!(hetero.makespan < cpu.makespan);
//! # Ok(())
//! # }
//! ```
#![forbid(unsafe_code)]

pub mod ablations;
pub mod baselines;
pub mod bench;
pub mod cache;
pub mod chrome;
pub mod configs;
pub mod experiments;
pub mod faults;
pub mod gpu;
pub mod isa;
pub mod mixed;
pub mod orders;
pub mod report;
pub mod serve;

pub use configs::{simulate, SystemConfig};
