//! Binary generation — the four binaries of Fig. 4.
//!
//! "Given an OpenCL kernel for a task, we generate four binary files:
//! (#1) to execute on CPU, (#2) to execute on fixed-function PIMs,
//! (#3) a set of small kernels extracted for fixed-function PIMs, and
//! (#4) the kernel with extracted regions replaced by kernel calls, to
//! execute on the programmable PIM." (§IV-B)

use crate::kir::{KernelSource, Region};
use pim_common::{PimError, Result};
use serde::{Deserialize, Serialize};

/// An extracted fixed-function sub-kernel (one entry of binary #3).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FixedKernel {
    /// Multiplications in the sub-kernel.
    pub muls: f64,
    /// Additions in the sub-kernel.
    pub adds: f64,
    /// Fixed-function units the sub-kernel occupies at once.
    pub parallelism: usize,
}

/// The complete compilation result for one operation kernel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BinarySet {
    /// Kernel name.
    pub name: String,
    /// Binary #1 — the unmodified kernel for the CPU (always present).
    pub cpu: KernelSource,
    /// Binary #2 — the whole kernel for fixed-function PIMs; present only
    /// when the kernel is pure multiply/add.
    pub fixed_whole: Option<KernelSource>,
    /// Binary #3 — small kernels extracted for fixed-function PIMs.
    pub fixed_kernels: Vec<FixedKernel>,
    /// Binary #4 — the programmable-PIM kernel with extracted regions
    /// replaced by [`Region::CallFixed`] sites.
    pub progr: KernelSource,
}

impl BinarySet {
    /// Runs the binary-generation pass on a kernel.
    ///
    /// # Examples
    ///
    /// ```
    /// use pim_opencl::binary::BinarySet;
    /// use pim_opencl::kir::KernelSource;
    /// use pim_tensor::cost::{CostProfile, OffloadClass};
    /// use pim_common::units::Bytes;
    ///
    /// # fn main() -> pim_common::Result<()> {
    /// let cost = CostProfile::compute(
    ///     1000.0, 990.0, 50.0, Bytes::new(8e3), Bytes::new(4e3),
    ///     OffloadClass::PartiallyMulAdd { ma_fraction: 0.97 }, 241,
    /// );
    /// let set = BinarySet::generate(KernelSource::from_cost("Conv2DBackpropFilter", &cost))?;
    /// assert!(set.fixed_whole.is_none());       // not pure mul/add
    /// assert_eq!(set.fixed_kernels.len(), 1);   // one extracted conv core
    /// assert!(set.supports_recursive_kernel());
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`PimError::KernelIndexOutOfBounds`] when the input kernel
    /// already contains a [`Region::CallFixed`] site whose index does not
    /// resolve against the extracted kernel list — the silent
    /// out-of-bounds that would otherwise only fault at execution time.
    pub fn generate(kernel: KernelSource) -> Result<Self> {
        let mut fixed_kernels = Vec::new();
        let mut progr_body = Vec::with_capacity(kernel.body.len());
        for region in &kernel.body {
            match *region {
                Region::MulAdd {
                    muls,
                    adds,
                    parallelism,
                } => {
                    let kernel_index = fixed_kernels.len();
                    fixed_kernels.push(FixedKernel {
                        muls,
                        adds,
                        parallelism,
                    });
                    progr_body.push(Region::CallFixed { kernel_index });
                }
                ref other => progr_body.push(other.clone()),
            }
        }
        // Pre-existing call sites (a kernel that was already split once)
        // pass through extraction unchanged; validate them against the
        // final kernel list instead of letting execution index past it.
        for region in &progr_body {
            if let Region::CallFixed { kernel_index } = *region {
                if kernel_index >= fixed_kernels.len() {
                    return Err(PimError::KernelIndexOutOfBounds {
                        kernel: kernel.name.clone(),
                        index: kernel_index,
                        available: fixed_kernels.len(),
                    });
                }
            }
        }
        let fixed_whole = if kernel.is_pure_mul_add() {
            Some(kernel.clone())
        } else {
            None
        };
        Ok(BinarySet {
            name: kernel.name.clone(),
            progr: KernelSource {
                name: format!("{}_progr", kernel.name),
                body: progr_body,
            },
            cpu: kernel,
            fixed_whole,
            fixed_kernels,
        })
    }

    /// True when the programmable binary invokes fixed-function kernels —
    /// the recursive-PIM-kernel execution scheme applies.
    pub fn supports_recursive_kernel(&self) -> bool {
        !self.fixed_kernels.is_empty()
            && self
                .progr
                .body
                .iter()
                .any(|r| matches!(r, Region::CallFixed { .. }))
    }

    /// Multiply/add flops moved into fixed kernels by the extraction.
    pub fn extracted_flops(&self) -> f64 {
        self.fixed_kernels.iter().map(|k| k.muls + k.adds).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_common::units::Bytes;
    use pim_tensor::cost::{CostProfile, OffloadClass};

    fn kernel(class: OffloadClass) -> KernelSource {
        let cost = CostProfile::compute(
            64.0,
            64.0,
            16.0,
            Bytes::new(1024.0),
            Bytes::new(512.0),
            class,
            9,
        );
        KernelSource::from_cost("k", &cost)
    }

    #[test]
    fn pure_mul_add_gets_all_four_binaries() {
        let set = BinarySet::generate(kernel(OffloadClass::FullyMulAdd)).unwrap();
        assert!(set.fixed_whole.is_some());
        assert!(set.supports_recursive_kernel());
        assert_eq!(set.extracted_flops(), 128.0);
    }

    #[test]
    fn non_mul_add_gets_no_fixed_binaries() {
        let set = BinarySet::generate(kernel(OffloadClass::NonMulAdd)).unwrap();
        assert!(set.fixed_whole.is_none());
        assert!(!set.supports_recursive_kernel());
        assert!(set.fixed_kernels.is_empty());
    }

    #[test]
    fn extraction_preserves_total_mul_add_work() {
        let src = kernel(OffloadClass::PartiallyMulAdd { ma_fraction: 0.89 });
        let total = src.mul_add_flops();
        let set = BinarySet::generate(src).unwrap();
        assert_eq!(set.extracted_flops(), total);
        // The programmable binary keeps no MulAdd regions.
        assert!(!set.progr.has_mul_add_region());
    }

    #[test]
    fn call_sites_reference_extracted_kernels() {
        let set = BinarySet::generate(kernel(OffloadClass::PartiallyMulAdd { ma_fraction: 0.89 }))
            .unwrap();
        for region in &set.progr.body {
            if let Region::CallFixed { kernel_index } = region {
                assert!(*kernel_index < set.fixed_kernels.len());
            }
        }
    }

    #[test]
    fn cpu_binary_is_the_original_kernel() {
        let src = kernel(OffloadClass::PartiallyMulAdd { ma_fraction: 0.89 });
        let set = BinarySet::generate(src.clone()).unwrap();
        assert_eq!(set.cpu, src);
    }
}
