//! Normalization layers: batch normalization (ResNet-50, Inception-v3,
//! DCGAN) and AlexNet's local response normalization.

use crate::cost::{CostProfile, OffloadClass};
use crate::shape::Shape;
use crate::tensor::Tensor;
use pim_common::units::Bytes;
use pim_common::Result;

/// Forward batch normalization over the channel axis of an NCHW tensor,
/// returning the normalized tensor together with the per-channel batch mean
/// and variance (needed by the backward pass).
///
/// # Examples
///
/// ```
/// use pim_tensor::ops::norm::batch_norm;
/// use pim_tensor::{Shape, Tensor};
///
/// # fn main() -> pim_common::Result<()> {
/// let x = Tensor::from_fn(Shape::new(vec![2, 1, 2, 2]), |i| i as f32);
/// let (y, mean, var) = batch_norm(&x, 1e-5)?;
/// assert!((mean[0] - 3.5).abs() < 1e-5);
/// assert!(var[0] > 0.0);
/// assert!(y.sum().abs() < 1e-4); // normalized output is zero-mean
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Returns [`pim_common::PimError::ShapeMismatch`] for non-4-D input.
pub fn batch_norm(input: &Tensor, epsilon: f32) -> Result<(Tensor, Vec<f32>, Vec<f32>)> {
    let (n, c, h, w) = input.shape().as_nchw()?;
    let per_channel = (n * h * w) as f32;
    let mut mean = vec![0.0f32; c];
    let mut var = vec![0.0f32; c];
    for ci in 0..c {
        let mut acc = 0.0f32;
        for ni in 0..n {
            for hi in 0..h {
                for wi in 0..w {
                    acc += input.at4(ni, ci, hi, wi);
                }
            }
        }
        mean[ci] = acc / per_channel;
        let mut acc2 = 0.0f32;
        for ni in 0..n {
            for hi in 0..h {
                for wi in 0..w {
                    let d = input.at4(ni, ci, hi, wi) - mean[ci];
                    acc2 += d * d;
                }
            }
        }
        var[ci] = acc2 / per_channel;
    }
    let mut out = Tensor::zeros(input.shape().clone());
    for ni in 0..n {
        for ci in 0..c {
            let inv_std = 1.0 / (var[ci] + epsilon).sqrt();
            for hi in 0..h {
                for wi in 0..w {
                    out.set4(
                        ni,
                        ci,
                        hi,
                        wi,
                        (input.at4(ni, ci, hi, wi) - mean[ci]) * inv_std,
                    );
                }
            }
        }
    }
    Ok((out, mean, var))
}

/// Analytic cost of the forward batch normalization (`FusedBatchNorm`):
/// reduction + normalize sweeps; divide/sqrt make it partially multiply/add.
///
/// # Errors
///
/// Returns [`pim_common::PimError::ShapeMismatch`] for non-4-D input.
pub fn batch_norm_cost(input: &Shape) -> Result<CostProfile> {
    input.as_nchw()?;
    let n = input.numel() as f64;
    let muls = n * 2.0;
    let adds = n * 3.0;
    let other = n * 0.5; // per-channel sqrt/div amortized over elements
    Ok(CostProfile::compute(
        muls,
        adds,
        other,
        Bytes::new(n * 4.0 * 2.0),
        Bytes::new(n * 4.0),
        OffloadClass::PartiallyMulAdd {
            ma_fraction: (muls + adds) / (muls + adds + other),
        },
        128,
    ))
}

/// Analytic cost of the batch-normalization gradient
/// (`FusedBatchNormGrad`): roughly twice the forward sweeps.
///
/// # Errors
///
/// Returns [`pim_common::PimError::ShapeMismatch`] for non-4-D input.
pub fn batch_norm_grad_cost(input: &Shape) -> Result<CostProfile> {
    input.as_nchw()?;
    let n = input.numel() as f64;
    let muls = n * 4.0;
    let adds = n * 5.0;
    let other = n * 0.8;
    Ok(CostProfile::compute(
        muls,
        adds,
        other,
        Bytes::new(n * 4.0 * 3.0),
        Bytes::new(n * 4.0),
        OffloadClass::PartiallyMulAdd {
            ma_fraction: (muls + adds) / (muls + adds + other),
        },
        128,
    ))
}

/// Forward local response normalization across channels (AlexNet's `LRN`),
/// with the standard radius-2, alpha 1e-4, beta 0.75 parameters.
///
/// # Errors
///
/// Returns [`pim_common::PimError::ShapeMismatch`] for non-4-D input.
pub fn lrn(input: &Tensor) -> Result<Tensor> {
    let (n, c, h, w) = input.shape().as_nchw()?;
    let (radius, alpha, beta, bias) = (2isize, 1e-4f32, 0.75f32, 2.0f32);
    let mut out = Tensor::zeros(input.shape().clone());
    for ni in 0..n {
        for ci in 0..c as isize {
            for hi in 0..h {
                for wi in 0..w {
                    let mut acc = 0.0f32;
                    for cj in (ci - radius).max(0)..=(ci + radius).min(c as isize - 1) {
                        let v = input.at4(ni, cj as usize, hi, wi);
                        acc += v * v;
                    }
                    let denom = (bias + alpha * acc).powf(beta);
                    out.set4(
                        ni,
                        ci as usize,
                        hi,
                        wi,
                        input.at4(ni, ci as usize, hi, wi) / denom,
                    );
                }
            }
        }
    }
    Ok(out)
}

/// Analytic cost of `LRN`: a 5-wide squared window plus a power and divide
/// per element.
///
/// # Errors
///
/// Returns [`pim_common::PimError::ShapeMismatch`] for non-4-D input.
pub fn lrn_cost(input: &Shape) -> Result<CostProfile> {
    input.as_nchw()?;
    let n = input.numel() as f64;
    let muls = n * 5.0;
    let adds = n * 4.0;
    let other = n * 12.0; // powf + div per element dominate LRN kernels
    Ok(CostProfile::compute(
        muls,
        adds,
        other,
        Bytes::new(n * 4.0 * 1.5),
        Bytes::new(n * 4.0),
        OffloadClass::PartiallyMulAdd {
            ma_fraction: (muls + adds) / (muls + adds + other),
        },
        9,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_common::rng::check;

    #[test]
    fn batch_norm_zero_means_unit_variance() {
        let x = Tensor::from_fn(Shape::new(vec![4, 2, 3, 3]), |i| ((i * 13) % 29) as f32);
        let (y, _, _) = batch_norm(&x, 1e-5).unwrap();
        let (n, c, h, w) = y.shape().as_nchw().unwrap();
        for ci in 0..c {
            let mut mean = 0.0f64;
            let mut var = 0.0f64;
            let count = (n * h * w) as f64;
            for ni in 0..n {
                for hi in 0..h {
                    for wi in 0..w {
                        mean += f64::from(y.at4(ni, ci, hi, wi));
                    }
                }
            }
            mean /= count;
            for ni in 0..n {
                for hi in 0..h {
                    for wi in 0..w {
                        var += (f64::from(y.at4(ni, ci, hi, wi)) - mean).powi(2);
                    }
                }
            }
            var /= count;
            assert!(mean.abs() < 1e-4, "channel {ci} mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "channel {ci} var {var}");
        }
    }

    #[test]
    fn constant_input_normalizes_to_zero() {
        let x = Tensor::full(Shape::new(vec![2, 1, 2, 2]), 7.0);
        let (y, mean, var) = batch_norm(&x, 1e-5).unwrap();
        assert_eq!(mean[0], 7.0);
        assert_eq!(var[0], 0.0);
        assert!(y.data().iter().all(|&v| v.abs() < 1e-2));
    }

    #[test]
    fn lrn_dampens_large_activations() {
        let x = Tensor::full(Shape::new(vec![1, 5, 1, 1]), 10.0);
        let y = lrn(&x).unwrap();
        // Every output is shrunk by the squared-sum denominator.
        for &v in y.data() {
            assert!(v < 10.0);
            assert!(v > 0.0);
        }
    }

    #[test]
    fn costs_are_partially_mul_add() {
        let shape = Shape::new(vec![8, 16, 14, 14]);
        for cost in [
            batch_norm_cost(&shape).unwrap(),
            batch_norm_grad_cost(&shape).unwrap(),
            lrn_cost(&shape).unwrap(),
        ] {
            assert!(matches!(cost.class, OffloadClass::PartiallyMulAdd { .. }));
            assert!(cost.is_well_formed());
        }
    }

    #[test]
    fn batch_norm_is_shift_invariant() {
        check(16, "batch_norm_is_shift_invariant", |g| {
            let shift = g.draw(-5.0f32..5.0);
            let x = Tensor::from_fn(Shape::new(vec![2, 1, 3, 3]), |i| ((i * 7) % 11) as f32);
            let shifted = Tensor::from_fn(x.shape().clone(), |i| x.data()[i] + shift);
            let (y1, _, _) = batch_norm(&x, 1e-5).unwrap();
            let (y2, _, _) = batch_norm(&shifted, 1e-5).unwrap();
            assert!(y1.max_abs_diff(&y2).unwrap() < 1e-3);
        });
    }
}
