//! Memory-system models for the heterogeneous PIM simulator.
//!
//! The paper attaches its heterogeneous PIM to the logic layer of a 3D
//! die-stacked memory configured like an HMC 2.0 cube (32 banks, 312.5 MHz).
//! Host baselines use planar DDR4; the GPU baseline uses GDDR5X. This crate
//! models all three:
//!
//! * [`stack`] — the 3D stack: banks, internal vs. external bandwidth,
//!   HMC 2.0 timing, frequency scaling (used by the paper's §VI-D study),
//! * [`bank`] — per-bank row-buffer state machine,
//! * [`controller`] — a command-level multi-bank controller that validates
//!   the per-pattern bandwidth-efficiency constants,
//! * [`planar`] — DDR4 and GDDR5X channel models,
//! * [`energy`] — per-access and background energy accounting,
//! * [`traffic`] — transfer-time math shared by every device model.
//!
//! # Examples
//!
//! ```
//! use pim_mem::stack::StackConfig;
//! use pim_mem::traffic::{transfer_time, AccessPattern};
//! use pim_common::units::Bytes;
//!
//! let stack = StackConfig::hmc2();
//! // Internal (PIM-side) bandwidth far exceeds the external link: that gap is
//! // the data-movement argument of the whole paper.
//! assert!(stack.internal_bandwidth() > stack.external_bandwidth());
//! let t = transfer_time(Bytes::new(1e9), stack.internal_bandwidth(), AccessPattern::Sequential);
//! assert!(t.seconds() > 0.0);
//! ```
#![forbid(unsafe_code)]

pub mod bank;
pub mod controller;
pub mod energy;
pub mod planar;
pub mod stack;
pub mod traffic;

pub use planar::{Ddr4Config, Gddr5xConfig};
pub use stack::StackConfig;
