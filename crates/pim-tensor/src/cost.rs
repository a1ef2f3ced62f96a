//! Analytic cost characterization of NN training operations.
//!
//! The paper's runtime only ever consumes two observables per operation —
//! execution time and main-memory access count — plus the knowledge of which
//! part of an operation decomposes into multiplications and additions (and
//! can therefore run on fixed-function PIMs). [`CostProfile`] carries exactly
//! that information, derived analytically from tensor shapes by the `ops`
//! modules, and is consumed by every device model in `pim-hw`.

use pim_common::access::AccessPattern;
use pim_common::units::Bytes;
use serde::{Deserialize, Serialize};

/// How much of an operation decomposes into plain multiply/add work.
///
/// This is the paper's §II-A taxonomy: `MatMul` is pure multiply/add;
/// `Conv2DBackpropFilter` contains multiply/add convolution phases plus
/// "other logic and computations"; `Relu`/`MaxPool` are conditionals and
/// discretization that fixed-function units cannot express; `Slice` is pure
/// data movement.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum OffloadClass {
    /// Entirely expressible as multiplications and additions
    /// (MatMul, Conv2D, BiasAdd, elementwise Mul/Add, SGD update).
    FullyMulAdd,
    /// A multiply/add core wrapped in other logic; the multiply/add fraction
    /// can be extracted into fixed-function kernels via the recursive-kernel
    /// mechanism (Conv2DBackprop*, ApplyAdam, BatchNorm).
    PartiallyMulAdd {
        /// Fraction of the arithmetic work that is multiply/add.
        ma_fraction: f64,
    },
    /// No useful multiply/add core: conditionals, discretization,
    /// transcendental functions (Relu, MaxPool, Softmax, Tanh).
    NonMulAdd,
    /// Pure data movement with negligible arithmetic (Slice, Concat,
    /// Reshape, embedding gathers).
    DataMovement,
}

impl OffloadClass {
    /// True when at least part of the operation can run on fixed-function
    /// PIMs.
    pub fn has_fixed_function_part(self) -> bool {
        matches!(
            self,
            OffloadClass::FullyMulAdd | OffloadClass::PartiallyMulAdd { .. }
        )
    }

    /// Fraction of arithmetic that is multiply/add.
    pub fn ma_fraction(self) -> f64 {
        match self {
            OffloadClass::FullyMulAdd => 1.0,
            OffloadClass::PartiallyMulAdd { ma_fraction } => ma_fraction,
            OffloadClass::NonMulAdd | OffloadClass::DataMovement => 0.0,
        }
    }
}

/// The complete analytic cost of one operation instance.
///
/// # Examples
///
/// ```
/// use pim_tensor::cost::{CostProfile, OffloadClass};
/// use pim_common::units::Bytes;
///
/// let c = CostProfile::compute(
///     1000.0,
///     999.0,
///     0.0,
///     Bytes::new(8000.0),
///     Bytes::new(4000.0),
///     OffloadClass::FullyMulAdd,
///     41,
/// );
/// assert_eq!(c.ma_flops(), 1999.0);
/// assert_eq!(c.total_bytes().bytes(), 12000.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostProfile {
    /// Floating-point multiplications.
    pub muls: f64,
    /// Floating-point additions (including subtractions).
    pub adds: f64,
    /// Arithmetic that is not plain multiply/add: divisions, square roots,
    /// exponentials, comparisons and selects.
    pub other_flops: f64,
    /// Loop/branch/address bookkeeping instructions.
    pub control_ops: f64,
    /// Main-memory bytes read (beyond what caches can hold).
    pub bytes_read: Bytes,
    /// Main-memory bytes written.
    pub bytes_written: Bytes,
    /// Address-stream pattern of the dominant access stream.
    pub pattern: AccessPattern,
    /// Number of fixed-function units the op keeps busy simultaneously
    /// (e.g. an 11x11 convolution window uses 121 multipliers + 120 adders =
    /// 241 units, per the paper's §III-C example).
    pub ff_parallelism: usize,
    /// Decomposability classification.
    pub class: OffloadClass,
}

impl CostProfile {
    /// An empty (free) profile.
    pub fn empty() -> Self {
        CostProfile {
            muls: 0.0,
            adds: 0.0,
            other_flops: 0.0,
            control_ops: 0.0,
            bytes_read: Bytes::ZERO,
            bytes_written: Bytes::ZERO,
            pattern: AccessPattern::Sequential,
            ff_parallelism: 0,
            class: OffloadClass::DataMovement,
        }
    }

    /// Builds a compute profile with control overhead derived from the
    /// arithmetic volume (one bookkeeping instruction per eight flops).
    #[allow(clippy::too_many_arguments)]
    pub fn compute(
        muls: f64,
        adds: f64,
        other_flops: f64,
        bytes_read: Bytes,
        bytes_written: Bytes,
        class: OffloadClass,
        ff_parallelism: usize,
    ) -> Self {
        let control_ops = (muls + adds + other_flops) / 8.0;
        CostProfile {
            muls,
            adds,
            other_flops,
            control_ops,
            bytes_read,
            bytes_written,
            pattern: AccessPattern::Sequential,
            ff_parallelism,
            class,
        }
    }

    /// Builds a pure data-movement profile.
    pub fn movement(bytes_read: Bytes, bytes_written: Bytes, pattern: AccessPattern) -> Self {
        CostProfile {
            muls: 0.0,
            adds: 0.0,
            other_flops: 0.0,
            control_ops: (bytes_read + bytes_written).bytes() / 64.0,
            bytes_read,
            bytes_written,
            pattern,
            ff_parallelism: 0,
            class: OffloadClass::DataMovement,
        }
    }

    /// Returns a copy with the given access pattern.
    pub fn with_pattern(mut self, pattern: AccessPattern) -> Self {
        self.pattern = pattern;
        self
    }

    /// Multiply/add work offloadable to fixed-function PIMs.
    pub fn ma_flops(&self) -> f64 {
        self.muls + self.adds
    }

    /// All arithmetic work.
    pub fn total_flops(&self) -> f64 {
        self.muls + self.adds + self.other_flops
    }

    /// Total main-memory traffic.
    pub fn total_bytes(&self) -> Bytes {
        self.bytes_read + self.bytes_written
    }

    /// Main-memory accesses in 64-byte lines — the profiler's
    /// "number of main memory accesses" metric.
    pub fn memory_accesses(&self) -> u64 {
        self.total_bytes().lines()
    }

    /// Accumulates another profile into this one (used to total a kernel
    /// made of several phases). The pattern degrades to the worst of the two
    /// and the classification to the less offloadable one.
    pub fn merge(&mut self, other: &CostProfile) {
        self.muls += other.muls;
        self.adds += other.adds;
        self.other_flops += other.other_flops;
        self.control_ops += other.control_ops;
        self.bytes_read += other.bytes_read;
        self.bytes_written += other.bytes_written;
        self.pattern = self.pattern.worst(other.pattern);
        self.ff_parallelism = self.ff_parallelism.max(other.ff_parallelism);
        let total = self.total_flops();
        self.class = if total == 0.0 {
            OffloadClass::DataMovement
        } else {
            let ma = self.ma_flops();
            if ma == total {
                OffloadClass::FullyMulAdd
            } else if ma == 0.0 {
                OffloadClass::NonMulAdd
            } else {
                OffloadClass::PartiallyMulAdd {
                    ma_fraction: ma / total,
                }
            }
        };
    }

    /// Sanity invariants: all fields finite and non-negative, fractions in
    /// range. Used by property tests across every op in the library.
    pub fn is_well_formed(&self) -> bool {
        let nonneg = |x: f64| x.is_finite() && x >= 0.0;
        nonneg(self.muls)
            && nonneg(self.adds)
            && nonneg(self.other_flops)
            && nonneg(self.control_ops)
            && self.bytes_read.is_valid()
            && self.bytes_written.is_valid()
            && (0.0..=1.0).contains(&self.class.ma_fraction())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CostProfile {
        CostProfile::compute(
            100.0,
            50.0,
            25.0,
            Bytes::new(640.0),
            Bytes::new(64.0),
            OffloadClass::PartiallyMulAdd { ma_fraction: 0.857 },
            11,
        )
    }

    #[test]
    fn totals_are_consistent() {
        let c = sample();
        assert_eq!(c.ma_flops(), 150.0);
        assert_eq!(c.total_flops(), 175.0);
        assert_eq!(c.total_bytes().bytes(), 704.0);
        assert_eq!(c.memory_accesses(), 11);
    }

    #[test]
    fn classes_report_fixed_function_part() {
        assert!(OffloadClass::FullyMulAdd.has_fixed_function_part());
        assert!(OffloadClass::PartiallyMulAdd { ma_fraction: 0.5 }.has_fixed_function_part());
        assert!(!OffloadClass::NonMulAdd.has_fixed_function_part());
        assert!(!OffloadClass::DataMovement.has_fixed_function_part());
    }

    #[test]
    fn merge_reclassifies() {
        let mut pure = CostProfile::compute(
            10.0,
            10.0,
            0.0,
            Bytes::ZERO,
            Bytes::ZERO,
            OffloadClass::FullyMulAdd,
            4,
        );
        let other = CostProfile::compute(
            0.0,
            0.0,
            20.0,
            Bytes::ZERO,
            Bytes::ZERO,
            OffloadClass::NonMulAdd,
            0,
        );
        pure.merge(&other);
        assert_eq!(
            pure.class,
            OffloadClass::PartiallyMulAdd { ma_fraction: 0.5 }
        );
        assert!(pure.is_well_formed());
    }

    #[test]
    fn merge_degrades_pattern() {
        let mut a = CostProfile::movement(Bytes::new(64.0), Bytes::ZERO, AccessPattern::Sequential);
        let b = CostProfile::movement(Bytes::new(64.0), Bytes::ZERO, AccessPattern::Random);
        a.merge(&b);
        assert_eq!(a.pattern, AccessPattern::Random);
    }

    #[test]
    fn movement_profile_has_no_flops() {
        let m = CostProfile::movement(
            Bytes::new(1024.0),
            Bytes::new(1024.0),
            AccessPattern::Sequential,
        );
        assert_eq!(m.total_flops(), 0.0);
        assert!(m.control_ops > 0.0);
    }

    #[test]
    fn empty_profile_is_well_formed() {
        assert!(CostProfile::empty().is_well_formed());
        assert_eq!(CostProfile::empty().memory_accesses(), 0);
    }
}
