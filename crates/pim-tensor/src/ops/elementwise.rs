//! Elementwise arithmetic and tensor-reshuffling operations.
//!
//! `Mul` shows up in DCGAN's top-5 compute list (Table I); `Slice` in its
//! top-5 memory list — the paper's example of a small operation that the
//! operation pipeline keeps off the critical path.

use crate::cost::{CostProfile, OffloadClass};
use crate::shape::Shape;
use crate::tensor::Tensor;
use pim_common::access::AccessPattern;
use pim_common::units::Bytes;
use pim_common::{PimError, Result};
use serde::{Deserialize, Serialize};

/// Supported elementwise binary operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BinaryOp {
    /// Elementwise addition (`Add`).
    Add,
    /// Elementwise subtraction (`Sub`).
    Sub,
    /// Elementwise multiplication (`Mul`).
    Mul,
}

impl BinaryOp {
    fn apply(self, a: f32, b: f32) -> f32 {
        match self {
            BinaryOp::Add => a + b,
            BinaryOp::Sub => a - b,
            BinaryOp::Mul => a * b,
        }
    }
}

/// Applies `op` elementwise over two same-shaped tensors.
///
/// # Examples
///
/// ```
/// use pim_tensor::ops::elementwise::{binary, BinaryOp};
/// use pim_tensor::{Shape, Tensor};
///
/// # fn main() -> pim_common::Result<()> {
/// let a = Tensor::from_vec(Shape::new(vec![2]), vec![1.0, 2.0])?;
/// let b = Tensor::from_vec(Shape::new(vec![2]), vec![3.0, 4.0])?;
/// let c = binary(&a, &b, BinaryOp::Mul)?;
/// assert_eq!(c.data(), &[3.0, 8.0]);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Returns [`PimError::ShapeMismatch`] when shapes disagree.
pub fn binary(a: &Tensor, b: &Tensor, op: BinaryOp) -> Result<Tensor> {
    if a.shape() != b.shape() {
        return Err(PimError::ShapeMismatch {
            context: "elementwise binary",
            expected: a.shape().dims().to_vec(),
            actual: b.shape().dims().to_vec(),
        });
    }
    Ok(Tensor::from_fn(a.shape().clone(), |i| {
        op.apply(a.data()[i], b.data()[i])
    }))
}

/// Multiplies a tensor by a scalar.
pub fn scale(a: &Tensor, factor: f32) -> Tensor {
    Tensor::from_fn(a.shape().clone(), |i| a.data()[i] * factor)
}

/// Copies `len` elements starting at flat offset `start` (`Slice`).
///
/// # Errors
///
/// Returns [`PimError::InvalidArgument`] when the range exceeds the input.
pub fn slice(input: &Tensor, start: usize, len: usize) -> Result<Tensor> {
    if start + len > input.numel() {
        return Err(PimError::invalid(
            "slice",
            format!(
                "range {start}..{} exceeds {} elements",
                start + len,
                input.numel()
            ),
        ));
    }
    Tensor::from_vec(
        Shape::new(vec![len]),
        input.data()[start..start + len].to_vec(),
    )
}

/// Concatenates flat tensors end to end (`Concat`).
pub fn concat(parts: &[&Tensor]) -> Tensor {
    let mut data = Vec::with_capacity(parts.iter().map(|t| t.numel()).sum());
    for p in parts {
        data.extend_from_slice(p.data());
    }
    let n = data.len();
    Tensor::from_vec(Shape::new(vec![n]), data).expect("length computed from parts")
}

/// Inverted-dropout forward pass with a pre-generated keep mask
/// (`Dropout`). The mask holds `1.0 / keep_prob` for kept elements and `0.0`
/// for dropped ones, so applying it is a plain elementwise multiply.
///
/// # Errors
///
/// Returns [`PimError::ShapeMismatch`] when the mask shape disagrees.
pub fn dropout_apply(input: &Tensor, mask: &Tensor) -> Result<Tensor> {
    binary(input, mask, BinaryOp::Mul)
}

/// Analytic cost of an elementwise binary op: fully multiply/add, traffic of
/// three tensors.
pub fn binary_cost(shape: &Shape, op: BinaryOp) -> CostProfile {
    let n = shape.numel() as f64;
    let (muls, adds) = match op {
        BinaryOp::Add | BinaryOp::Sub => (0.0, n),
        BinaryOp::Mul => (n, 0.0),
    };
    CostProfile::compute(
        muls,
        adds,
        0.0,
        Bytes::new(n * 4.0 * 2.0),
        Bytes::new(n * 4.0),
        OffloadClass::FullyMulAdd,
        256,
    )
}

/// Analytic cost of `Slice`: pure data movement.
pub fn slice_cost(len: usize) -> CostProfile {
    CostProfile::movement(
        Bytes::new(len as f64 * 4.0),
        Bytes::new(len as f64 * 4.0),
        AccessPattern::Sequential,
    )
}

/// Analytic cost of `Concat` over the given part lengths.
pub fn concat_cost(part_lens: &[usize]) -> CostProfile {
    let total: usize = part_lens.iter().sum();
    CostProfile::movement(
        Bytes::new(total as f64 * 4.0),
        Bytes::new(total as f64 * 4.0),
        AccessPattern::Sequential,
    )
}

/// Analytic cost of `Dropout` (mask generation + apply): the RNG and compare
/// are non-multiply/add, the apply is a multiply.
pub fn dropout_cost(shape: &Shape) -> CostProfile {
    let n = shape.numel() as f64;
    let muls = n;
    let other = n * 3.0; // rng + compare + select
    CostProfile::compute(
        muls,
        0.0,
        other,
        Bytes::new(n * 4.0 * 2.0),
        Bytes::new(n * 4.0),
        OffloadClass::PartiallyMulAdd {
            ma_fraction: muls / (muls + other),
        },
        64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_common::rng::check;

    #[test]
    fn binary_ops_compute() {
        let a = Tensor::from_vec(Shape::new(vec![2]), vec![4.0, 9.0]).unwrap();
        let b = Tensor::from_vec(Shape::new(vec![2]), vec![2.0, 3.0]).unwrap();
        assert_eq!(binary(&a, &b, BinaryOp::Add).unwrap().data(), &[6.0, 12.0]);
        assert_eq!(binary(&a, &b, BinaryOp::Sub).unwrap().data(), &[2.0, 6.0]);
        assert_eq!(binary(&a, &b, BinaryOp::Mul).unwrap().data(), &[8.0, 27.0]);
    }

    #[test]
    fn binary_validates_shapes() {
        let a = Tensor::zeros(Shape::new(vec![2]));
        let b = Tensor::zeros(Shape::new(vec![3]));
        assert!(binary(&a, &b, BinaryOp::Add).is_err());
    }

    #[test]
    fn slice_extracts_range() {
        let t = Tensor::from_fn(Shape::new(vec![10]), |i| i as f32);
        let s = slice(&t, 3, 4).unwrap();
        assert_eq!(s.data(), &[3.0, 4.0, 5.0, 6.0]);
        assert!(slice(&t, 8, 4).is_err());
    }

    #[test]
    fn concat_joins_parts() {
        let a = Tensor::from_vec(Shape::new(vec![2]), vec![1.0, 2.0]).unwrap();
        let b = Tensor::from_vec(Shape::new(vec![1]), vec![3.0]).unwrap();
        let c = concat(&[&a, &b]);
        assert_eq!(c.data(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn slice_is_data_movement() {
        let cost = slice_cost(1024);
        assert_eq!(cost.class, OffloadClass::DataMovement);
        assert_eq!(cost.total_flops(), 0.0);
    }

    #[test]
    fn dropout_scales_kept_elements() {
        let x = Tensor::full(Shape::new(vec![4]), 1.0);
        let mask = Tensor::from_vec(Shape::new(vec![4]), vec![2.0, 0.0, 2.0, 0.0]).unwrap();
        let y = dropout_apply(&x, &mask).unwrap();
        assert_eq!(y.data(), &[2.0, 0.0, 2.0, 0.0]);
    }

    #[test]
    fn slice_concat_roundtrip() {
        check(64, "slice_concat_roundtrip", |g| {
            let data = g.vec(2..32, |g| g.draw(-10.0f32..10.0));
            let cut_frac = g.draw(0.1f64..0.9);
            let n = data.len();
            let cut = ((n as f64 * cut_frac) as usize).clamp(1, n - 1);
            let t = Tensor::from_vec(Shape::new(vec![n]), data.clone()).unwrap();
            let left = slice(&t, 0, cut).unwrap();
            let right = slice(&t, cut, n - cut).unwrap();
            let rejoined = concat(&[&left, &right]);
            assert_eq!(rejoined.data(), &data[..]);
        });
    }

    #[test]
    fn mul_commutes() {
        check(64, "mul_commutes", |g| {
            let vals = g.vec(1..16, |g| g.draw(-5.0f32..5.0));
            let n = vals.len();
            let a = Tensor::from_vec(Shape::new(vec![n]), vals.clone()).unwrap();
            let b = Tensor::from_fn(Shape::new(vec![n]), |i| (i as f32) - 2.0);
            let ab = binary(&a, &b, BinaryOp::Mul).unwrap();
            let ba = binary(&b, &a, BinaryOp::Mul).unwrap();
            assert_eq!(ab, ba);
        });
    }

    #[test]
    fn binary_cost_tracks_op_kind() {
        check(64, "binary_cost_tracks_op_kind", |g| {
            let n = g.draw(1usize..10_000);
            let shape = Shape::new(vec![n]);
            assert_eq!(binary_cost(&shape, BinaryOp::Mul).muls, n as f64);
            assert_eq!(binary_cost(&shape, BinaryOp::Add).adds, n as f64);
            assert!(binary_cost(&shape, BinaryOp::Sub).is_well_formed());
        });
    }
}
