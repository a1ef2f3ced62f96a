//! The extended OpenCL programming model for heterogeneous PIM (Table II).
//!
//! * [`kir`] — a miniature kernel IR so binary generation is a real code
//!   transformation,
//! * [`binary`] — the four-binary compilation pass of Fig. 4, including the
//!   extraction that powers recursive PIM kernels.
//!
//! # Examples
//!
//! ```
//! use pim_opencl::binary::BinarySet;
//! use pim_opencl::kir::KernelSource;
//! use pim_tensor::cost::{CostProfile, OffloadClass};
//! use pim_common::units::Bytes;
//!
//! # fn main() -> pim_common::Result<()> {
//! // Compile a MatMul-like kernel: pure multiply/add, so all four
//! // binaries of Fig. 4 exist.
//! let cost = CostProfile::compute(
//!     1e6, 1e6, 0.0, Bytes::new(1e4), Bytes::new(1e4),
//!     OffloadClass::FullyMulAdd, 63,
//! );
//! let set = BinarySet::generate(KernelSource::from_cost("MatMul", &cost))?;
//! assert!(set.fixed_whole.is_some());
//! assert!(set.supports_recursive_kernel());
//! # Ok(())
//! # }
//! ```
#![forbid(unsafe_code)]

pub mod binary;
pub mod kir;

pub use binary::BinarySet;
pub use kir::KernelSource;
