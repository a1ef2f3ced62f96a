//! Bias addition and its gradient.
//!
//! `BiasAddGrad` is a pure reduction: almost no arithmetic per byte moved,
//! which is why it ranks near the top of Table I's memory-intensity column
//! for every model while contributing little execution time.

use crate::cost::{CostProfile, OffloadClass};
use crate::shape::Shape;
use crate::tensor::Tensor;
use pim_common::units::Bytes;
use pim_common::{PimError, Result};

/// Number of channel positions and the per-channel extent for a tensor:
/// channels are axis 1 for NCHW, the last axis for matrices.
fn channel_layout(shape: &Shape) -> Result<(usize, usize, bool)> {
    match *shape.dims() {
        [_, c, _, _] => Ok((c, shape.numel() / c, true)),
        [_, c] => Ok((c, shape.numel() / c, false)),
        _ => Err(PimError::ShapeMismatch {
            context: "bias channel layout",
            expected: vec![2, 4],
            actual: vec![shape.rank()],
        }),
    }
}

/// Adds a per-channel bias to a 2-D (`[N, C]`) or 4-D (`[N, C, H, W]`)
/// tensor.
///
/// # Examples
///
/// ```
/// use pim_tensor::ops::bias::bias_add;
/// use pim_tensor::{Shape, Tensor};
///
/// # fn main() -> pim_common::Result<()> {
/// let x = Tensor::zeros(Shape::new(vec![2, 3]));
/// let b = Tensor::from_vec(Shape::new(vec![3]), vec![1.0, 2.0, 3.0])?;
/// let y = bias_add(&x, &b)?;
/// assert_eq!(y.data(), &[1.0, 2.0, 3.0, 1.0, 2.0, 3.0]);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Returns [`PimError::ShapeMismatch`] when the bias length disagrees with
/// the channel count.
pub fn bias_add(input: &Tensor, bias: &Tensor) -> Result<Tensor> {
    let (c, _, is_nchw) = channel_layout(input.shape())?;
    if bias.numel() != c {
        return Err(PimError::ShapeMismatch {
            context: "bias_add",
            expected: vec![c],
            actual: vec![bias.numel()],
        });
    }
    let dims = input.shape().dims().to_vec();
    let mut out = input.clone();
    if is_nchw {
        let (n, _, h, w) = input.shape().as_nchw()?;
        for ni in 0..n {
            for ci in 0..c {
                let b = bias.data()[ci];
                for hi in 0..h {
                    for wi in 0..w {
                        out.add4(ni, ci, hi, wi, b);
                    }
                }
            }
        }
    } else {
        let rows = dims[0];
        for r in 0..rows {
            for ci in 0..c {
                let v = out.at2(r, ci) + bias.data()[ci];
                out.set2(r, ci, v);
            }
        }
    }
    Ok(out)
}

/// Gradient of the bias: sums the upstream gradient over every non-channel
/// axis (`BiasAddGrad`).
///
/// # Errors
///
/// Returns [`PimError::ShapeMismatch`] for tensors that are not 2-D or 4-D.
pub fn bias_add_grad(grad_output: &Tensor) -> Result<Tensor> {
    let (c, _, is_nchw) = channel_layout(grad_output.shape())?;
    let mut grad_bias = Tensor::zeros(Shape::new(vec![c]));
    if is_nchw {
        let (n, _, h, w) = grad_output.shape().as_nchw()?;
        for ni in 0..n {
            for ci in 0..c {
                let mut acc = 0.0f32;
                for hi in 0..h {
                    for wi in 0..w {
                        acc += grad_output.at4(ni, ci, hi, wi);
                    }
                }
                grad_bias.data_mut()[ci] += acc;
            }
        }
    } else {
        let rows = grad_output.shape().dims()[0];
        for r in 0..rows {
            for ci in 0..c {
                grad_bias.data_mut()[ci] += grad_output.at2(r, ci);
            }
        }
    }
    Ok(grad_bias)
}

/// Analytic cost of `BiasAdd`: one addition per element, read + write of the
/// whole tensor. Fully multiply/add.
///
/// # Errors
///
/// Returns [`PimError::ShapeMismatch`] for unsupported ranks.
pub fn bias_add_cost(input: &Shape) -> Result<CostProfile> {
    let (_, per_channel, _) = channel_layout(input)?;
    let n = input.numel() as f64;
    Ok(CostProfile::compute(
        0.0,
        n,
        0.0,
        Bytes::new(n * 4.0),
        Bytes::new(n * 4.0),
        OffloadClass::FullyMulAdd,
        per_channel.min(512),
    ))
}

/// Analytic cost of `BiasAddGrad`: one addition per element but the output
/// is only `C` wide — extreme memory intensity, minimal time.
///
/// # Errors
///
/// Returns [`PimError::ShapeMismatch`] for unsupported ranks.
pub fn bias_add_grad_cost(grad_output: &Shape) -> Result<CostProfile> {
    let (c, per_channel, _) = channel_layout(grad_output)?;
    let n = grad_output.numel() as f64;
    Ok(CostProfile::compute(
        0.0,
        n,
        0.0,
        // The reduction sweep is cache-hostile across the batch axis: each
        // element is a fresh main-memory line in the profiled TF kernels.
        Bytes::new(n * 4.0 * 2.2),
        Bytes::new(c as f64 * 4.0),
        OffloadClass::FullyMulAdd,
        per_channel.min(512),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_common::rng::check;

    #[test]
    fn bias_add_4d_broadcasts_over_channel() {
        let x = Tensor::zeros(Shape::new(vec![1, 2, 2, 2]));
        let b = Tensor::from_vec(Shape::new(vec![2]), vec![1.0, -1.0]).unwrap();
        let y = bias_add(&x, &b).unwrap();
        assert_eq!(y.at4(0, 0, 1, 1), 1.0);
        assert_eq!(y.at4(0, 1, 0, 0), -1.0);
    }

    #[test]
    fn bias_length_is_validated() {
        let x = Tensor::zeros(Shape::new(vec![2, 3]));
        let b = Tensor::zeros(Shape::new(vec![4]));
        assert!(bias_add(&x, &b).is_err());
    }

    #[test]
    fn rank3_is_rejected() {
        let x = Shape::new(vec![2, 3, 4]);
        assert!(bias_add_cost(&x).is_err());
    }

    #[test]
    fn grad_sums_over_batch() {
        let g = Tensor::from_vec(Shape::new(vec![2, 2]), vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let gb = bias_add_grad(&g).unwrap();
        assert_eq!(gb.data(), &[4.0, 6.0]);
    }

    #[test]
    fn grad_is_memory_intensive() {
        let shape = Shape::new(vec![32, 64, 56, 56]);
        let cost = bias_add_grad_cost(&shape).unwrap();
        // Very low arithmetic intensity (flops per byte moved) is the
        // signature of this op.
        assert!(cost.total_flops() < 0.25 * cost.total_bytes().bytes());
        assert_eq!(cost.class, OffloadClass::FullyMulAdd);
    }

    #[test]
    fn grad_then_add_is_linear() {
        check(64, "grad_then_add_is_linear", |g| {
            let rows = g.draw(1usize..6);
            let cols = g.draw(1usize..6);
            // bias_add_grad(ones) should count rows for every channel.
            let g = Tensor::full(Shape::new(vec![rows, cols]), 1.0);
            let gb = bias_add_grad(&g).unwrap();
            for &v in gb.data() {
                assert_eq!(v, rows as f32);
            }
        });
    }

    #[test]
    fn add_count_equals_numel() {
        check(64, "add_count_equals_numel", |g| {
            let n = g.draw(1usize..8);
            let c = g.draw(1usize..8);
            let cost = bias_add_cost(&Shape::new(vec![n, c])).unwrap();
            assert_eq!(cost.adds, (n * c) as f64);
            assert!(cost.is_well_formed());
        });
    }
}
