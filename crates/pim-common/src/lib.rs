//! Shared foundation types for the `hetero-pim` workspace.
//!
//! This crate holds the vocabulary used by every other crate in the
//! reproduction of *Processing-in-Memory for Energy-efficient Neural Network
//! Training: A Heterogeneous Approach* (MICRO 2018):
//!
//! * strongly typed identifiers ([`ids`]),
//! * physical units with unit-safe arithmetic ([`units`]),
//! * the common error type ([`error`]),
//! * structured analysis diagnostics ([`diag`]),
//! * runtime observability: spans, counters, Chrome-trace export ([`trace`]),
//! * shared command-line parsing helpers for the workspace binaries
//!   ([`cli`]),
//! * the seeded generators every deterministic stream draws from, and
//!   the property-test harness ([`rng`]).
//!
//! # Examples
//!
//! ```
//! use pim_common::units::{Seconds, Joules};
//!
//! let t = Seconds::new(2.0);
//! let e = Joules::new(10.0);
//! let power = e / t;
//! assert_eq!(power.watts(), 5.0);
//! ```
#![forbid(unsafe_code)]

pub mod access;
pub mod cli;
pub mod diag;
pub mod error;
pub mod fingerprint;
pub mod ids;
pub mod rng;
pub mod trace;
pub mod units;

pub use diag::{Diagnostic, Diagnostics, Severity};
pub use error::{PimError, Result};
pub use trace::{Counters, NullTrace, Recorder, TraceEvent, TraceRecording, TraceSink, Track};
