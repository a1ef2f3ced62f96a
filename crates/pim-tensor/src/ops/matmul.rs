//! Matrix multiplication (`MatMul`), the canonical fully multiply/add op.

use crate::cost::{CostProfile, OffloadClass};
use crate::shape::Shape;
use crate::tensor::Tensor;
use pim_common::units::Bytes;
use pim_common::{PimError, Result};

/// Whether an operand is used transposed.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, Default, serde::Serialize, serde::Deserialize,
)]
pub struct Transpose {
    /// Transpose the left operand.
    pub a: bool,
    /// Transpose the right operand.
    pub b: bool,
}

impl Transpose {
    /// Neither operand transposed.
    pub const NONE: Transpose = Transpose { a: false, b: false };
}

fn operand_dims(shape: &Shape, transposed: bool, context: &'static str) -> Result<(usize, usize)> {
    let (r, c) = shape.as_matrix().map_err(|_| PimError::ShapeMismatch {
        context,
        expected: vec![2],
        actual: vec![shape.rank()],
    })?;
    Ok(if transposed { (c, r) } else { (r, c) })
}

/// Logical `(m, k, n)` dimensions of `a @ b` under the transpose flags.
///
/// # Errors
///
/// Returns [`PimError::ShapeMismatch`] for non-matrices or when the inner
/// dimensions disagree.
pub fn matmul_dims(a: &Shape, b: &Shape, t: Transpose) -> Result<(usize, usize, usize)> {
    let (m, ka) = operand_dims(a, t.a, "matmul lhs")?;
    let (kb, n) = operand_dims(b, t.b, "matmul rhs")?;
    if ka != kb {
        return Err(PimError::ShapeMismatch {
            context: "matmul inner dimension",
            expected: vec![ka],
            actual: vec![kb],
        });
    }
    Ok((m, ka, n))
}

/// Computes `a @ b` (with optional transposes) into a new `[m, n]` tensor.
///
/// # Examples
///
/// ```
/// use pim_tensor::ops::matmul::{matmul, Transpose};
/// use pim_tensor::{Shape, Tensor};
///
/// # fn main() -> pim_common::Result<()> {
/// let a = Tensor::from_vec(Shape::new(vec![2, 2]), vec![1.0, 2.0, 3.0, 4.0])?;
/// let b = Tensor::from_vec(Shape::new(vec![2, 2]), vec![5.0, 6.0, 7.0, 8.0])?;
/// let c = matmul(&a, &b, Transpose::NONE)?;
/// assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Returns [`PimError::ShapeMismatch`] when the operands are not conformable
/// matrices.
pub fn matmul(a: &Tensor, b: &Tensor, t: Transpose) -> Result<Tensor> {
    let (m, k, n) = matmul_dims(a.shape(), b.shape(), t)?;
    let mut out = Tensor::zeros(Shape::new(vec![m, n]));
    let a_at = |i: usize, p: usize| if t.a { a.at2(p, i) } else { a.at2(i, p) };
    let b_at = |p: usize, j: usize| if t.b { b.at2(j, p) } else { b.at2(p, j) };
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += a_at(i, p) * b_at(p, j);
            }
            out.set2(i, j, acc);
        }
    }
    Ok(out)
}

/// Analytic cost of `a @ b`: `m*n*k` multiplications, `m*n*(k-1)` additions,
/// streaming reads of both operands and a streaming write of the result.
///
/// The fixed-function parallelism is the dot-product unrolling the paper
/// describes for convolution windows: `k` multipliers plus `k - 1` adders.
///
/// # Errors
///
/// Returns [`PimError::ShapeMismatch`] when the operands are not conformable.
pub fn matmul_cost(a: &Shape, b: &Shape, t: Transpose) -> Result<CostProfile> {
    let (m, k, n) = matmul_dims(a, b, t)?;
    let (m_f, k_f, n_f) = (m as f64, k as f64, n as f64);
    let muls = m_f * n_f * k_f;
    let adds = m_f * n_f * (k_f - 1.0).max(0.0);
    let bytes_read = Bytes::new((a.numel() + b.numel()) as f64 * 4.0);
    let bytes_written = Bytes::new(m_f * n_f * 4.0);
    Ok(CostProfile::compute(
        muls,
        adds,
        0.0,
        bytes_read,
        bytes_written,
        OffloadClass::FullyMulAdd,
        2 * k - 1,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_common::rng::check;

    fn naive_with_counts(a: &Tensor, b: &Tensor) -> (Tensor, u64, u64) {
        let (m, k) = a.shape().as_matrix().unwrap();
        let (_, n) = b.shape().as_matrix().unwrap();
        let mut out = Tensor::zeros(Shape::new(vec![m, n]));
        let (mut muls, mut adds) = (0u64, 0u64);
        for i in 0..m {
            for j in 0..n {
                let mut acc = a.at2(i, 0) * b.at2(0, j);
                muls += 1;
                for p in 1..k {
                    acc += a.at2(i, p) * b.at2(p, j);
                    muls += 1;
                    adds += 1;
                }
                out.set2(i, j, acc);
            }
        }
        (out, muls, adds)
    }

    #[test]
    fn identity_is_neutral() {
        let a = Tensor::from_fn(Shape::new(vec![3, 3]), |i| i as f32);
        let id = Tensor::from_fn(
            Shape::new(vec![3, 3]),
            |i| {
                if i % 4 == 0 {
                    1.0
                } else {
                    0.0
                }
            },
        );
        let c = matmul(&a, &id, Transpose::NONE).unwrap();
        assert_eq!(c, a);
    }

    #[test]
    fn transposes_agree_with_explicit_transposition() {
        let a = Tensor::from_fn(Shape::new(vec![2, 3]), |i| i as f32 + 1.0);
        let b = Tensor::from_fn(Shape::new(vec![2, 4]), |i| (i as f32).sin());
        // a^T (3x2) @ b (2x4) = 3x4
        let via_flag = matmul(&a, &b, Transpose { a: true, b: false }).unwrap();
        // Build explicit a^T.
        let mut at = Tensor::zeros(Shape::new(vec![3, 2]));
        for r in 0..2 {
            for c in 0..3 {
                at.set2(c, r, a.at2(r, c));
            }
        }
        let explicit = matmul(&at, &b, Transpose::NONE).unwrap();
        assert!(via_flag.max_abs_diff(&explicit).unwrap() < 1e-6);
    }

    #[test]
    fn mismatched_inner_dims_rejected() {
        let a = Tensor::zeros(Shape::new(vec![2, 3]));
        let b = Tensor::zeros(Shape::new(vec![4, 2]));
        assert!(matmul(&a, &b, Transpose::NONE).is_err());
    }

    #[test]
    fn cost_counts_match_instrumented_execution() {
        let a = Tensor::from_fn(Shape::new(vec![4, 6]), |i| i as f32);
        let b = Tensor::from_fn(Shape::new(vec![6, 5]), |i| i as f32 * 0.5);
        let (_, muls, adds) = naive_with_counts(&a, &b);
        let cost = matmul_cost(a.shape(), b.shape(), Transpose::NONE).unwrap();
        assert_eq!(cost.muls, muls as f64);
        assert_eq!(cost.adds, adds as f64);
        assert_eq!(cost.class, OffloadClass::FullyMulAdd);
    }

    #[test]
    fn ff_parallelism_matches_dot_product_width() {
        let cost = matmul_cost(
            &Shape::new(vec![8, 121]),
            &Shape::new(vec![121, 8]),
            Transpose::NONE,
        )
        .unwrap();
        // 121 muls + 120 adds, the paper's 11x11 example.
        assert_eq!(cost.ff_parallelism, 241);
    }

    #[test]
    fn analytic_counts_match_for_random_shapes() {
        check(64, "analytic_counts_match_for_random_shapes", |g| {
            let m = g.draw(1usize..6);
            let k = g.draw(1usize..6);
            let n = g.draw(1usize..6);
            let a = Tensor::from_fn(Shape::new(vec![m, k]), |i| i as f32);
            let b = Tensor::from_fn(Shape::new(vec![k, n]), |i| i as f32);
            let (expected, muls, adds) = naive_with_counts(&a, &b);
            let got = matmul(&a, &b, Transpose::NONE).unwrap();
            assert!(got.max_abs_diff(&expected).unwrap() < 1e-4);
            let cost = matmul_cost(a.shape(), b.shape(), Transpose::NONE).unwrap();
            assert_eq!(cost.muls, muls as f64);
            assert_eq!(cost.adds, adds as f64);
            assert!(cost.is_well_formed());
        });
    }

    #[test]
    fn matmul_is_linear_in_first_argument() {
        check(64, "matmul_is_linear_in_first_argument", |g| {
            let m = g.draw(1usize..4);
            let k = g.draw(1usize..4);
            let n = g.draw(1usize..4);
            let scale = g.draw(-4.0f32..4.0);
            let a = Tensor::from_fn(Shape::new(vec![m, k]), |i| (i as f32).cos());
            let b = Tensor::from_fn(Shape::new(vec![k, n]), |i| (i as f32).sin());
            let scaled_a = Tensor::from_vec(
                a.shape().clone(),
                a.data().iter().map(|&x| x * scale).collect(),
            )
            .unwrap();
            let lhs = matmul(&scaled_a, &b, Transpose::NONE).unwrap();
            let base = matmul(&a, &b, Transpose::NONE).unwrap();
            let rhs = Tensor::from_vec(
                base.shape().clone(),
                base.data().iter().map(|&x| x * scale).collect(),
            )
            .unwrap();
            assert!(lhs.max_abs_diff(&rhs).unwrap() < 1e-3);
        });
    }
}
