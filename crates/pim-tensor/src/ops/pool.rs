//! Max and average pooling with gradients.
//!
//! `MaxPool` is the paper's example of a "sample-based discretization
//! process" that fixed-function multiply/add units cannot express; it is
//! classified [`OffloadClass::NonMulAdd`] and targets the programmable PIM.

use crate::cost::{CostProfile, OffloadClass};
use crate::shape::{ConvGeometry, Shape};
use crate::tensor::Tensor;
use pim_common::units::Bytes;
use pim_common::{PimError, Result};

/// Forward max pooling. Returns the pooled tensor and the flat argmax index
/// of each window (needed by the gradient).
///
/// # Examples
///
/// ```
/// use pim_tensor::ops::pool::max_pool;
/// use pim_tensor::shape::{ConvGeometry, Shape};
/// use pim_tensor::Tensor;
///
/// # fn main() -> pim_common::Result<()> {
/// let input = Tensor::from_fn(Shape::new(vec![1, 1, 2, 2]), |i| i as f32);
/// let (out, _) = max_pool(&input, ConvGeometry::square(2, 2, 0))?;
/// assert_eq!(out.data(), &[3.0]);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Returns [`PimError::ShapeMismatch`] for non-4-D inputs.
pub fn max_pool(input: &Tensor, geom: ConvGeometry) -> Result<(Tensor, Vec<usize>)> {
    let (n, c, h, w) = input.shape().as_nchw()?;
    let (oh, ow) = geom.output_hw(h, w);
    let mut out = Tensor::zeros(Shape::new(vec![n, c, oh, ow]));
    let mut argmax = vec![0usize; n * c * oh * ow];
    let mut cursor = 0;
    for ni in 0..n {
        for ci in 0..c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_idx = 0usize;
                    for ky in 0..geom.kernel_h {
                        for kx in 0..geom.kernel_w {
                            let iy = (oy * geom.stride_h + ky) as isize - geom.pad_h as isize;
                            let ix = (ox * geom.stride_w + kx) as isize - geom.pad_w as isize;
                            if iy >= 0 && ix >= 0 && (iy as usize) < h && (ix as usize) < w {
                                let v = input.at4(ni, ci, iy as usize, ix as usize);
                                if v > best {
                                    best = v;
                                    best_idx = input.offset4(ni, ci, iy as usize, ix as usize);
                                }
                            }
                        }
                    }
                    out.set4(ni, ci, oy, ox, best);
                    argmax[cursor] = best_idx;
                    cursor += 1;
                }
            }
        }
    }
    Ok((out, argmax))
}

/// Gradient of max pooling (`MaxPoolGrad`): routes each output gradient to
/// the input element that won its window.
///
/// # Errors
///
/// Returns [`PimError::ShapeMismatch`] when `argmax` disagrees with
/// `grad_output`.
pub fn max_pool_grad(
    input_shape: &Shape,
    grad_output: &Tensor,
    argmax: &[usize],
) -> Result<Tensor> {
    if grad_output.numel() != argmax.len() {
        return Err(PimError::ShapeMismatch {
            context: "max_pool_grad argmax",
            expected: vec![grad_output.numel()],
            actual: vec![argmax.len()],
        });
    }
    let mut grad_input = Tensor::zeros(input_shape.clone());
    for (g, &idx) in grad_output.data().iter().zip(argmax) {
        if idx >= grad_input.numel() {
            return Err(PimError::invalid(
                "max_pool_grad",
                format!("argmax index {idx} out of range"),
            ));
        }
        grad_input.data_mut()[idx] += g;
    }
    Ok(grad_input)
}

/// Forward average pooling (ResNet / Inception global pooling).
///
/// # Errors
///
/// Returns [`PimError::ShapeMismatch`] for non-4-D inputs.
pub fn avg_pool(input: &Tensor, geom: ConvGeometry) -> Result<Tensor> {
    let (n, c, h, w) = input.shape().as_nchw()?;
    let (oh, ow) = geom.output_hw(h, w);
    let mut out = Tensor::zeros(Shape::new(vec![n, c, oh, ow]));
    let window = geom.window_len() as f32;
    for ni in 0..n {
        for ci in 0..c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = 0.0f32;
                    for ky in 0..geom.kernel_h {
                        for kx in 0..geom.kernel_w {
                            let iy = (oy * geom.stride_h + ky) as isize - geom.pad_h as isize;
                            let ix = (ox * geom.stride_w + kx) as isize - geom.pad_w as isize;
                            if iy >= 0 && ix >= 0 && (iy as usize) < h && (ix as usize) < w {
                                acc += input.at4(ni, ci, iy as usize, ix as usize);
                            }
                        }
                    }
                    out.set4(ni, ci, oy, ox, acc / window);
                }
            }
        }
    }
    Ok(out)
}

fn pool_output_elems(input: &Shape, geom: ConvGeometry) -> Result<(f64, f64)> {
    let (n, c, h, w) = input.as_nchw()?;
    let (oh, ow) = geom.output_hw(h, w);
    Ok((
        n as f64 * c as f64 * oh as f64 * ow as f64,
        geom.window_len() as f64,
    ))
}

/// Analytic cost of `MaxPool`: one comparison per window element.
///
/// # Errors
///
/// Returns [`PimError::ShapeMismatch`] for non-4-D inputs.
pub fn max_pool_cost(input: &Shape, geom: ConvGeometry) -> Result<CostProfile> {
    let (out_elems, window) = pool_output_elems(input, geom)?;
    Ok(CostProfile::compute(
        0.0,
        0.0,
        out_elems * window, // compares/selects
        Bytes::new(input.numel() as f64 * 4.0),
        Bytes::new(out_elems * 4.0 * 2.0), // values + argmax
        OffloadClass::NonMulAdd,
        0,
    ))
}

/// Analytic cost of `MaxPoolGrad`: an indexed scatter of the gradients.
///
/// # Errors
///
/// Returns [`PimError::ShapeMismatch`] for non-4-D inputs.
pub fn max_pool_grad_cost(input: &Shape, geom: ConvGeometry) -> Result<CostProfile> {
    let (out_elems, _) = pool_output_elems(input, geom)?;
    Ok(CostProfile::compute(
        0.0,
        out_elems, // scatter accumulation
        out_elems, // index decode
        Bytes::new(out_elems * 4.0 * 2.0),
        Bytes::new(input.numel() as f64 * 4.0),
        OffloadClass::NonMulAdd,
        0,
    )
    .with_pattern(pim_common::access::AccessPattern::Strided))
}

/// Analytic cost of `AvgPool`: adds plus one divide per output.
///
/// # Errors
///
/// Returns [`PimError::ShapeMismatch`] for non-4-D inputs.
pub fn avg_pool_cost(input: &Shape, geom: ConvGeometry) -> Result<CostProfile> {
    let (out_elems, window) = pool_output_elems(input, geom)?;
    let adds = out_elems * (window - 1.0).max(0.0);
    let other = out_elems; // the divide
    Ok(CostProfile::compute(
        0.0,
        adds,
        other,
        Bytes::new(input.numel() as f64 * 4.0),
        Bytes::new(out_elems * 4.0),
        OffloadClass::PartiallyMulAdd {
            ma_fraction: adds / (adds + other),
        },
        geom.window_len(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_common::rng::check;

    #[test]
    fn max_pool_picks_window_maximum() {
        let input = Tensor::from_vec(
            Shape::new(vec![1, 1, 4, 4]),
            vec![
                1.0, 2.0, 5.0, 6.0, //
                3.0, 4.0, 7.0, 8.0, //
                9.0, 10.0, 13.0, 14.0, //
                11.0, 12.0, 15.0, 16.0,
            ],
        )
        .unwrap();
        let (out, argmax) = max_pool(&input, ConvGeometry::square(2, 2, 0)).unwrap();
        assert_eq!(out.data(), &[4.0, 8.0, 12.0, 16.0]);
        assert_eq!(argmax, vec![5, 7, 13, 15]);
    }

    #[test]
    fn grad_routes_to_argmax() {
        let input = Tensor::from_fn(Shape::new(vec![1, 1, 2, 2]), |i| i as f32);
        let (_, argmax) = max_pool(&input, ConvGeometry::square(2, 2, 0)).unwrap();
        let grad_out = Tensor::full(Shape::new(vec![1, 1, 1, 1]), 2.5);
        let grad_in = max_pool_grad(input.shape(), &grad_out, &argmax).unwrap();
        assert_eq!(grad_in.data(), &[0.0, 0.0, 0.0, 2.5]);
    }

    #[test]
    fn grad_rejects_bad_argmax_len() {
        let grad_out = Tensor::zeros(Shape::new(vec![1, 1, 1, 1]));
        assert!(max_pool_grad(&Shape::new(vec![1, 1, 2, 2]), &grad_out, &[]).is_err());
    }

    #[test]
    fn grad_rejects_out_of_range_index() {
        let grad_out = Tensor::zeros(Shape::new(vec![1, 1, 1, 1]));
        assert!(max_pool_grad(&Shape::new(vec![1, 1, 2, 2]), &grad_out, &[99]).is_err());
    }

    #[test]
    fn avg_pool_averages() {
        let input =
            Tensor::from_vec(Shape::new(vec![1, 1, 2, 2]), vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let out = avg_pool(&input, ConvGeometry::square(2, 2, 0)).unwrap();
        assert_eq!(out.data(), &[2.5]);
    }

    #[test]
    fn pooling_is_non_mul_add() {
        let shape = Shape::new(vec![32, 64, 56, 56]);
        let cost = max_pool_cost(&shape, ConvGeometry::square(2, 2, 0)).unwrap();
        assert_eq!(cost.class, OffloadClass::NonMulAdd);
        assert_eq!(cost.muls, 0.0);
        assert!(cost.other_flops > 0.0);
    }

    #[test]
    fn max_pool_grad_conserves_gradient_mass() {
        check(32, "max_pool_grad_conserves_gradient_mass", |g| {
            let hw = g.draw(2usize..8);
            let c = g.draw(1usize..3);
            let geom = ConvGeometry::square(2, 2, 0);
            let input = Tensor::from_fn(Shape::new(vec![1, c, hw - hw % 2, hw - hw % 2]), |i| {
                ((i * 31) % 17) as f32
            });
            let (out, argmax) = max_pool(&input, geom).unwrap();
            let grad_out = Tensor::full(out.shape().clone(), 1.0);
            let grad_in = max_pool_grad(input.shape(), &grad_out, &argmax).unwrap();
            // Every unit of output gradient lands somewhere in the input.
            assert!((grad_in.sum() - grad_out.sum()).abs() < 1e-6);
        });
    }

    #[test]
    fn costs_are_well_formed() {
        check(32, "costs_are_well_formed", |g| {
            let hw = g.draw(4usize..32);
            let c = g.draw(1usize..8);
            let shape = Shape::new(vec![2, c, hw, hw]);
            let geom = ConvGeometry::square(2, 2, 0);
            assert!(max_pool_cost(&shape, geom).unwrap().is_well_formed());
            assert!(max_pool_grad_cost(&shape, geom).unwrap().is_well_formed());
            assert!(avg_pool_cost(&shape, geom).unwrap().is_well_formed());
        });
    }
}
