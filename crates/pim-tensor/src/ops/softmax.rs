//! Softmax and the fused softmax-cross-entropy loss with gradient.

use crate::cost::{CostProfile, OffloadClass};
use crate::shape::Shape;
use crate::tensor::Tensor;
use pim_common::units::Bytes;
use pim_common::{PimError, Result};

/// Row-wise numerically stable softmax of a `[N, C]` matrix.
///
/// # Examples
///
/// ```
/// use pim_tensor::ops::softmax::softmax;
/// use pim_tensor::{Shape, Tensor};
///
/// # fn main() -> pim_common::Result<()> {
/// let x = Tensor::from_vec(Shape::new(vec![1, 2]), vec![0.0, 0.0])?;
/// let y = softmax(&x)?;
/// assert!((y.data()[0] - 0.5).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Returns [`PimError::ShapeMismatch`] for non-matrices.
pub fn softmax(logits: &Tensor) -> Result<Tensor> {
    let (n, c) = logits.shape().as_matrix()?;
    let mut out = Tensor::zeros(logits.shape().clone());
    for r in 0..n {
        let mut max = f32::NEG_INFINITY;
        for j in 0..c {
            max = max.max(logits.at2(r, j));
        }
        let mut denom = 0.0f32;
        for j in 0..c {
            denom += (logits.at2(r, j) - max).exp();
        }
        for j in 0..c {
            out.set2(r, j, (logits.at2(r, j) - max).exp() / denom);
        }
    }
    Ok(out)
}

/// Mean softmax-cross-entropy loss against one-hot labels, returning the
/// scalar loss and the gradient with respect to the logits.
///
/// # Errors
///
/// Returns [`PimError::ShapeMismatch`] when `labels.len()` differs from the
/// batch size or a label is out of range.
pub fn softmax_cross_entropy(logits: &Tensor, labels: &[usize]) -> Result<(f32, Tensor)> {
    let (n, c) = logits.shape().as_matrix()?;
    if labels.len() != n {
        return Err(PimError::ShapeMismatch {
            context: "softmax_cross_entropy labels",
            expected: vec![n],
            actual: vec![labels.len()],
        });
    }
    let probs = softmax(logits)?;
    let mut grad = probs.clone();
    let mut loss = 0.0f64;
    for (r, &label) in labels.iter().enumerate() {
        if label >= c {
            return Err(PimError::invalid(
                "softmax_cross_entropy",
                format!("label {label} out of range for {c} classes"),
            ));
        }
        loss -= f64::from(probs.at2(r, label).max(1e-12)).ln();
        let v = grad.at2(r, label) - 1.0;
        grad.set2(r, label, v);
    }
    // Mean over the batch.
    let scale = 1.0 / n as f32;
    for v in grad.data_mut() {
        *v *= scale;
    }
    Ok(((loss / n as f64) as f32, grad))
}

/// Analytic cost of the fused softmax-cross-entropy (forward + gradient):
/// exp/log/div dominated, hence [`OffloadClass::NonMulAdd`].
///
/// # Errors
///
/// Returns [`PimError::ShapeMismatch`] for non-matrices.
pub fn softmax_xent_cost(logits: &Shape) -> Result<CostProfile> {
    let (n, c) = logits.as_matrix()?;
    let elems = (n * c) as f64;
    Ok(CostProfile::compute(
        elems,       // probability scaling
        elems * 2.0, // max/denominator accumulations
        elems * 5.0, // exp + div + log
        Bytes::new(elems * 4.0 * 2.0),
        Bytes::new(elems * 4.0),
        OffloadClass::NonMulAdd,
        0,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_common::rng::check;

    #[test]
    fn rows_sum_to_one() {
        let x = Tensor::from_fn(Shape::new(vec![3, 5]), |i| (i as f32).sin() * 3.0);
        let y = softmax(&x).unwrap();
        for r in 0..3 {
            let s: f32 = (0..5).map(|j| y.at2(r, j)).sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn stable_under_large_logits() {
        let x = Tensor::from_vec(Shape::new(vec![1, 2]), vec![1000.0, 1000.0]).unwrap();
        let y = softmax(&x).unwrap();
        assert!((y.data()[0] - 0.5).abs() < 1e-6);
        assert!(y.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn loss_is_log_c_for_uniform_logits() {
        let c = 8usize;
        let x = Tensor::zeros(Shape::new(vec![4, c]));
        let (loss, _) = softmax_cross_entropy(&x, &[0, 1, 2, 3]).unwrap();
        assert!((loss - (c as f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn rejects_bad_labels() {
        let x = Tensor::zeros(Shape::new(vec![2, 3]));
        assert!(softmax_cross_entropy(&x, &[0]).is_err());
        assert!(softmax_cross_entropy(&x, &[0, 9]).is_err());
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let x = Tensor::from_fn(Shape::new(vec![2, 3]), |i| ((i * 5) % 7) as f32 * 0.3);
        let labels = [2usize, 0];
        let (_, grad) = softmax_cross_entropy(&x, &labels).unwrap();
        let eps = 1e-2f32;
        for idx in 0..x.numel() {
            let mut plus = x.clone();
            plus.data_mut()[idx] += eps;
            let mut minus = x.clone();
            minus.data_mut()[idx] -= eps;
            let (lp, _) = softmax_cross_entropy(&plus, &labels).unwrap();
            let (lm, _) = softmax_cross_entropy(&minus, &labels).unwrap();
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - grad.data()[idx]).abs() < 1e-3,
                "grad[{idx}]: numeric {numeric} analytic {}",
                grad.data()[idx]
            );
        }
    }

    #[test]
    fn gradient_rows_sum_to_zero() {
        check(64, "gradient_rows_sum_to_zero", |g| {
            let n = g.draw(1usize..5);
            let c = g.draw(2usize..6);
            let seed = g.draw(0u32..1000);
            let x = Tensor::from_fn(Shape::new(vec![n, c]), |i| {
                (((i as u32).wrapping_add(seed).wrapping_mul(2_654_435_761)) % 1000) as f32 / 500.0
                    - 1.0
            });
            let labels: Vec<usize> = (0..n).map(|i| i % c).collect();
            let (_, grad) = softmax_cross_entropy(&x, &labels).unwrap();
            for r in 0..n {
                let s: f32 = (0..c).map(|j| grad.at2(r, j)).sum();
                assert!(s.abs() < 1e-5, "row {r} sums to {s}");
            }
        });
    }

    #[test]
    fn cost_is_well_formed() {
        check(64, "cost_is_well_formed", |g| {
            let n = g.draw(1usize..64);
            let c = g.draw(1usize..1024);
            let cost = softmax_xent_cost(&Shape::new(vec![n, c])).unwrap();
            assert!(cost.is_well_formed());
            assert_eq!(cost.class, OffloadClass::NonMulAdd);
        });
    }
}
