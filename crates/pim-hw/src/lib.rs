//! Device models for every compute element of the evaluation.
//!
//! * [`cpu`] — the Xeon host (Table IV),
//! * [`gpu`] — the GTX 1080 Ti baseline with utilization, launch-overhead,
//!   staging and working-set-spill effects,
//! * [`fixed`] — the 444-unit fixed-function PIM pool with allocation state,
//! * [`arm`] — the programmable ARM PIM (and the all-programmable baseline
//!   pool),
//! * [`neurocube`] — the prior-work comparison point (Fig. 10),
//! * [`placement`] / [`thermal`] — the §IV-D thermal-aware unit placement
//!   and its HotSpot-lite validation,
//! * [`power`] — the McPAT-lite logic-die design-space exploration that
//!   re-derives the 444-unit figure,
//! * [`faults`] — the deterministic seeded fault model ([`faults::FaultPlan`])
//!   the engine's recovery policy executes against,
//! * [`params`] — the shared timing/energy formula.
//!
//! Calibration policy is documented in DESIGN.md §4.4: constants reproduce
//! the paper's reported *ratios*, and each one is a named, documented field.
#![forbid(unsafe_code)]

pub mod arm;
pub mod cpu;
pub mod device;
pub mod faults;
pub mod fixed;
pub mod gpu;
pub mod neurocube;
pub mod params;
pub mod placement;
pub mod power;
pub mod thermal;

pub use arm::{ProgrammablePim, ProgrammablePool};
pub use cpu::CpuDevice;
pub use device::{AnalyticGpu, Device};
pub use fixed::{FixedFunctionPool, FixedPoolConfig};
pub use gpu::GpuDevice;
pub use params::{ComputeEstimate, DeviceParams};
