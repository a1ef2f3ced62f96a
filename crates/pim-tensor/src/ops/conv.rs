//! 2-D convolution and its gradients — the dominant operations of Table I.
//!
//! Layouts: input `[N, C, H, W]`, filters `[F, C, KH, KW]`, output
//! `[N, F, OH, OW]`. `Conv2D` is fully multiply/add; the two backprop
//! operations carry extra index arithmetic and accumulation logic, which is
//! why the paper classifies them as complex operations that need the
//! recursive-kernel mechanism (§III-B, Fig. 6).

use crate::cost::{CostProfile, OffloadClass};
use crate::shape::{ConvGeometry, Shape};
use crate::tensor::Tensor;
use pim_common::units::Bytes;
use pim_common::{PimError, Result};

/// Validates conv operand shapes and returns `(n, c, h, w, f, oh, ow)`.
fn conv_dims(
    input: &Shape,
    filter: &Shape,
    geom: ConvGeometry,
) -> Result<(usize, usize, usize, usize, usize, usize, usize)> {
    let (n, c, h, w) = input.as_nchw()?;
    let (f, fc, kh, kw) = filter.as_nchw()?;
    if fc != c || kh != geom.kernel_h || kw != geom.kernel_w {
        return Err(PimError::ShapeMismatch {
            context: "conv2d filter",
            expected: vec![c, geom.kernel_h, geom.kernel_w],
            actual: vec![fc, kh, kw],
        });
    }
    let (oh, ow) = geom.output_hw(h, w);
    Ok((n, c, h, w, f, oh, ow))
}

/// Forward 2-D convolution.
///
/// # Examples
///
/// ```
/// use pim_tensor::ops::conv::conv2d;
/// use pim_tensor::shape::{ConvGeometry, Shape};
/// use pim_tensor::Tensor;
///
/// # fn main() -> pim_common::Result<()> {
/// let input = Tensor::full(Shape::new(vec![1, 1, 3, 3]), 1.0);
/// let filter = Tensor::full(Shape::new(vec![1, 1, 2, 2]), 1.0);
/// let out = conv2d(&input, &filter, ConvGeometry::square(2, 1, 0))?;
/// assert_eq!(out.shape().dims(), &[1, 1, 2, 2]);
/// assert_eq!(out.data(), &[4.0, 4.0, 4.0, 4.0]);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Returns [`PimError::ShapeMismatch`] when operand shapes are inconsistent
/// with the geometry.
pub fn conv2d(input: &Tensor, filter: &Tensor, geom: ConvGeometry) -> Result<Tensor> {
    let (n, c, h, w, f, oh, ow) = conv_dims(input.shape(), filter.shape(), geom)?;
    let mut out = Tensor::zeros(Shape::new(vec![n, f, oh, ow]));
    for ni in 0..n {
        for fi in 0..f {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = 0.0f32;
                    for ci in 0..c {
                        for ky in 0..geom.kernel_h {
                            for kx in 0..geom.kernel_w {
                                let iy = (oy * geom.stride_h + ky) as isize - geom.pad_h as isize;
                                let ix = (ox * geom.stride_w + kx) as isize - geom.pad_w as isize;
                                if iy >= 0 && ix >= 0 && (iy as usize) < h && (ix as usize) < w {
                                    acc += input.at4(ni, ci, iy as usize, ix as usize)
                                        * filter.at4(fi, ci, ky, kx);
                                }
                            }
                        }
                    }
                    out.set4(ni, fi, oy, ox, acc);
                }
            }
        }
    }
    Ok(out)
}

/// Gradient of the loss with respect to the filter (`Conv2DBackpropFilter`).
///
/// # Errors
///
/// Returns [`PimError::ShapeMismatch`] when operand shapes are inconsistent.
pub fn conv2d_backprop_filter(
    input: &Tensor,
    grad_output: &Tensor,
    filter_shape: &Shape,
    geom: ConvGeometry,
) -> Result<Tensor> {
    let (n, c, h, w, f, oh, ow) = conv_dims(input.shape(), filter_shape, geom)?;
    let (gn, gf, goh, gow) = grad_output.shape().as_nchw()?;
    if (gn, gf, goh, gow) != (n, f, oh, ow) {
        return Err(PimError::ShapeMismatch {
            context: "conv2d_backprop_filter grad_output",
            expected: vec![n, f, oh, ow],
            actual: vec![gn, gf, goh, gow],
        });
    }
    let mut grad_filter = Tensor::zeros(filter_shape.clone());
    for ni in 0..n {
        for fi in 0..f {
            for oy in 0..oh {
                for ox in 0..ow {
                    let g = grad_output.at4(ni, fi, oy, ox);
                    if g == 0.0 {
                        continue;
                    }
                    for ci in 0..c {
                        for ky in 0..geom.kernel_h {
                            for kx in 0..geom.kernel_w {
                                let iy = (oy * geom.stride_h + ky) as isize - geom.pad_h as isize;
                                let ix = (ox * geom.stride_w + kx) as isize - geom.pad_w as isize;
                                if iy >= 0 && ix >= 0 && (iy as usize) < h && (ix as usize) < w {
                                    grad_filter.add4(
                                        fi,
                                        ci,
                                        ky,
                                        kx,
                                        g * input.at4(ni, ci, iy as usize, ix as usize),
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    Ok(grad_filter)
}

/// Gradient of the loss with respect to the input (`Conv2DBackpropInput`).
///
/// # Errors
///
/// Returns [`PimError::ShapeMismatch`] when operand shapes are inconsistent.
pub fn conv2d_backprop_input(
    input_shape: &Shape,
    filter: &Tensor,
    grad_output: &Tensor,
    geom: ConvGeometry,
) -> Result<Tensor> {
    let (n, c, h, w, f, oh, ow) = conv_dims(input_shape, filter.shape(), geom)?;
    let (gn, gf, goh, gow) = grad_output.shape().as_nchw()?;
    if (gn, gf, goh, gow) != (n, f, oh, ow) {
        return Err(PimError::ShapeMismatch {
            context: "conv2d_backprop_input grad_output",
            expected: vec![n, f, oh, ow],
            actual: vec![gn, gf, goh, gow],
        });
    }
    let mut grad_input = Tensor::zeros(input_shape.clone());
    for ni in 0..n {
        for fi in 0..f {
            for oy in 0..oh {
                for ox in 0..ow {
                    let g = grad_output.at4(ni, fi, oy, ox);
                    if g == 0.0 {
                        continue;
                    }
                    for ci in 0..c {
                        for ky in 0..geom.kernel_h {
                            for kx in 0..geom.kernel_w {
                                let iy = (oy * geom.stride_h + ky) as isize - geom.pad_h as isize;
                                let ix = (ox * geom.stride_w + kx) as isize - geom.pad_w as isize;
                                if iy >= 0 && ix >= 0 && (iy as usize) < h && (ix as usize) < w {
                                    grad_input.add4(
                                        ni,
                                        ci,
                                        iy as usize,
                                        ix as usize,
                                        g * filter.at4(fi, ci, ky, kx),
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    Ok(grad_input)
}

/// Transposed convolution (DCGAN generator upsampling).
///
/// Filters are `[C_in, C_out, KH, KW]`; the output spatial size follows
/// [`ConvGeometry::transpose_output_hw`].
///
/// # Errors
///
/// Returns [`PimError::ShapeMismatch`] when operand shapes are inconsistent.
pub fn conv2d_transpose(input: &Tensor, filter: &Tensor, geom: ConvGeometry) -> Result<Tensor> {
    let (n, c_in, h, w) = input.shape().as_nchw()?;
    let (fc_in, c_out, kh, kw) = filter.shape().as_nchw()?;
    if fc_in != c_in || kh != geom.kernel_h || kw != geom.kernel_w {
        return Err(PimError::ShapeMismatch {
            context: "conv2d_transpose filter",
            expected: vec![c_in, geom.kernel_h, geom.kernel_w],
            actual: vec![fc_in, kh, kw],
        });
    }
    let (oh, ow) = geom.transpose_output_hw(h, w);
    let mut out = Tensor::zeros(Shape::new(vec![n, c_out, oh, ow]));
    for ni in 0..n {
        for ci in 0..c_in {
            for iy in 0..h {
                for ix in 0..w {
                    let v = input.at4(ni, ci, iy, ix);
                    if v == 0.0 {
                        continue;
                    }
                    for co in 0..c_out {
                        for ky in 0..kh {
                            for kx in 0..kw {
                                let oy = (iy * geom.stride_h + ky) as isize - geom.pad_h as isize;
                                let ox = (ix * geom.stride_w + kx) as isize - geom.pad_w as isize;
                                if oy >= 0 && ox >= 0 && (oy as usize) < oh && (ox as usize) < ow {
                                    out.add4(
                                        ni,
                                        co,
                                        oy as usize,
                                        ox as usize,
                                        v * filter.at4(ci, co, ky, kx),
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    Ok(out)
}

/// Main-memory amplification of the input stream under im2col-style
/// lowering after cache reuse.
const IM2COL_AMPLIFICATION: f64 = 4.0;

/// Multiply/add volume shared by the forward pass and both gradients:
/// `n * f * oh * ow * c * kh * kw` multiply-accumulate pairs.
fn conv_macs(n: usize, c: usize, f: usize, oh: usize, ow: usize, geom: ConvGeometry) -> f64 {
    n as f64 * f as f64 * oh as f64 * ow as f64 * c as f64 * geom.window_len() as f64
}

/// The fixed-function parallelism of a convolution: the full dot product —
/// `kh*kw*c` multiplications plus the adder tree — unrolled over
/// multiplier/adder pairs, replicated over up to four output filters
/// processed concurrently. (The paper's §III-C example counts a single
/// 11x11 single-filter window as 121 multipliers + 120 adders; channel and
/// filter unrolling carry the same decomposition further.)
fn conv_ff_parallelism(geom: ConvGeometry, in_channels: usize, filters: usize) -> usize {
    2 * geom.window_len() * in_channels.max(1) * filters.clamp(1, 4) - 1
}

/// Analytic cost of the forward convolution (fully multiply/add).
///
/// # Errors
///
/// Returns [`PimError::ShapeMismatch`] when operand shapes are inconsistent.
pub fn conv2d_cost(input: &Shape, filter: &Shape, geom: ConvGeometry) -> Result<CostProfile> {
    let (n, c, _, _, f, oh, ow) = conv_dims(input, filter, geom)?;
    let macs = conv_macs(n, c, f, oh, ow, geom);
    let out_elems = n as f64 * f as f64 * oh as f64 * ow as f64;
    Ok(CostProfile::compute(
        macs,
        macs - out_elems, // each output accumulates window-1 additions
        0.0,
        // The im2col lowering of framework conv kernels re-reads each input
        // element once per overlapping window position; caches recover part
        // of that, leaving ~4x amplification on the input stream.
        Bytes::new((input.numel() as f64 * IM2COL_AMPLIFICATION + filter.numel() as f64) * 4.0),
        Bytes::new(out_elems * 4.0),
        OffloadClass::FullyMulAdd,
        conv_ff_parallelism(geom, c, f),
    ))
}

/// Analytic cost of `Conv2DBackpropFilter`.
///
/// Same multiply/add core as the forward pass, plus scatter-accumulate index
/// logic and a read of both the input and the output gradient — this op tops
/// both the time and memory-access rankings of Table I. Classified
/// partially multiply/add (the paper's Fig. 6 offloads only its convolution
/// phases to fixed-function PIMs).
///
/// # Errors
///
/// Returns [`PimError::ShapeMismatch`] when operand shapes are inconsistent.
pub fn conv2d_backprop_filter_cost(
    input: &Shape,
    filter: &Shape,
    geom: ConvGeometry,
) -> Result<CostProfile> {
    let (n, c, _, _, f, oh, ow) = conv_dims(input, filter, geom)?;
    let macs = conv_macs(n, c, f, oh, ow, geom);
    let muls = macs;
    let adds = macs; // scatter accumulation adds once per MAC
                     // Phases 1-2 of the paper's Fig. 6: per-tile index transforms and
                     // boundary setup, amortized over the window (not per MAC) — the
                     // non-mul/add reason this op needs the recursive-kernel mechanism.
    let other = 0.0015 * macs;
    let out_grad_elems = n as f64 * f as f64 * oh as f64 * ow as f64;
    // The filter gradient re-reads the im2col-lowered input *and* the
    // output gradient across the accumulation, and the partial filter sums
    // spill: traffic exceeds even the forward pass, matching this op's top
    // memory-intensity rank in Table I.
    let reads =
        input.numel() as f64 * 4.0 * (IM2COL_AMPLIFICATION + 1.0) + out_grad_elems * 4.0 * 2.0;
    let writes = filter.numel() as f64 * 4.0 * 2.0 + out_grad_elems * 4.0 * 0.5;
    let ma = muls + adds;
    Ok(CostProfile::compute(
        muls,
        adds,
        other,
        Bytes::new(reads),
        Bytes::new(writes),
        OffloadClass::PartiallyMulAdd {
            ma_fraction: ma / (ma + other),
        },
        conv_ff_parallelism(geom, c, f),
    ))
}

/// Analytic cost of `Conv2DBackpropInput`.
///
/// # Errors
///
/// Returns [`PimError::ShapeMismatch`] when operand shapes are inconsistent.
pub fn conv2d_backprop_input_cost(
    input: &Shape,
    filter: &Shape,
    geom: ConvGeometry,
) -> Result<CostProfile> {
    let (n, c, _, _, f, oh, ow) = conv_dims(input, filter, geom)?;
    let macs = conv_macs(n, c, f, oh, ow, geom);
    let muls = macs;
    let adds = macs;
    let other = 0.001 * macs;
    let out_grad_elems = n as f64 * f as f64 * oh as f64 * ow as f64;
    let reads = filter.numel() as f64 * 4.0 + out_grad_elems * 4.0 * IM2COL_AMPLIFICATION;
    let writes = input.numel() as f64 * 4.0 * 1.5;
    let ma = muls + adds;
    Ok(CostProfile::compute(
        muls,
        adds,
        other,
        Bytes::new(reads),
        Bytes::new(writes),
        OffloadClass::PartiallyMulAdd {
            ma_fraction: ma / (ma + other),
        },
        conv_ff_parallelism(geom, c, f),
    ))
}

/// Analytic cost of the transposed convolution (DCGAN generator). Fully
/// multiply/add like the forward convolution.
///
/// # Errors
///
/// Returns [`PimError::ShapeMismatch`] when operand shapes are inconsistent.
pub fn conv2d_transpose_cost(
    input: &Shape,
    filter: &Shape,
    geom: ConvGeometry,
) -> Result<CostProfile> {
    let (n, c_in, h, w) = input.as_nchw()?;
    let (_, c_out, _, _) = filter.as_nchw()?;
    let (oh, ow) = geom.transpose_output_hw(h, w);
    let macs =
        n as f64 * c_in as f64 * h as f64 * w as f64 * c_out as f64 * geom.window_len() as f64;
    Ok(CostProfile::compute(
        macs,
        macs,
        0.0,
        Bytes::new((input.numel() + filter.numel()) as f64 * 4.0),
        Bytes::new(n as f64 * c_out as f64 * oh as f64 * ow as f64 * 4.0),
        OffloadClass::FullyMulAdd,
        conv_ff_parallelism(geom, c_in, c_out),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_common::rng::check;

    fn geom_3x3() -> ConvGeometry {
        ConvGeometry::square(3, 1, 1)
    }

    #[test]
    fn forward_shape_is_correct() {
        let input = Tensor::zeros(Shape::new(vec![2, 3, 8, 8]));
        let filter = Tensor::zeros(Shape::new(vec![4, 3, 3, 3]));
        let out = conv2d(&input, &filter, geom_3x3()).unwrap();
        assert_eq!(out.shape().dims(), &[2, 4, 8, 8]);
    }

    #[test]
    fn forward_rejects_channel_mismatch() {
        let input = Tensor::zeros(Shape::new(vec![1, 3, 8, 8]));
        let filter = Tensor::zeros(Shape::new(vec![4, 2, 3, 3]));
        assert!(conv2d(&input, &filter, geom_3x3()).is_err());
    }

    /// Finite-difference check: the analytic filter gradient matches
    /// numerically perturbing each filter weight.
    #[test]
    fn backprop_filter_matches_finite_differences() {
        let geom = ConvGeometry::square(2, 1, 0);
        let input = Tensor::from_fn(Shape::new(vec![1, 2, 4, 4]), |i| ((i * 7) % 5) as f32 * 0.1);
        let filter = Tensor::from_fn(Shape::new(vec![2, 2, 2, 2]), |i| ((i * 3) % 4) as f32 * 0.2);
        // Loss = sum of outputs, so grad_output = ones.
        let out = conv2d(&input, &filter, geom).unwrap();
        let grad_out = Tensor::full(out.shape().clone(), 1.0);
        let analytic = conv2d_backprop_filter(&input, &grad_out, filter.shape(), geom).unwrap();

        let eps = 1e-2f32;
        for idx in 0..filter.numel() {
            let mut plus = filter.clone();
            plus.data_mut()[idx] += eps;
            let mut minus = filter.clone();
            minus.data_mut()[idx] -= eps;
            let loss_plus: f64 = conv2d(&input, &plus, geom).unwrap().sum();
            let loss_minus: f64 = conv2d(&input, &minus, geom).unwrap().sum();
            let numeric = (loss_plus - loss_minus) / (2.0 * f64::from(eps));
            let got = f64::from(analytic.data()[idx]);
            assert!(
                (numeric - got).abs() < 1e-2,
                "filter grad[{idx}]: numeric {numeric} vs analytic {got}"
            );
        }
    }

    #[test]
    fn backprop_input_matches_finite_differences() {
        let geom = ConvGeometry::square(2, 2, 0);
        let input = Tensor::from_fn(Shape::new(vec![1, 1, 4, 4]), |i| (i % 3) as f32 * 0.3);
        let filter = Tensor::from_fn(Shape::new(vec![2, 1, 2, 2]), |i| (i % 5) as f32 * 0.1);
        let out = conv2d(&input, &filter, geom).unwrap();
        let grad_out = Tensor::full(out.shape().clone(), 1.0);
        let analytic = conv2d_backprop_input(input.shape(), &filter, &grad_out, geom).unwrap();

        let eps = 1e-2f32;
        for idx in 0..input.numel() {
            let mut plus = input.clone();
            plus.data_mut()[idx] += eps;
            let mut minus = input.clone();
            minus.data_mut()[idx] -= eps;
            let loss_plus: f64 = conv2d(&plus, &filter, geom).unwrap().sum();
            let loss_minus: f64 = conv2d(&minus, &filter, geom).unwrap().sum();
            let numeric = (loss_plus - loss_minus) / (2.0 * f64::from(eps));
            let got = f64::from(analytic.data()[idx]);
            assert!(
                (numeric - got).abs() < 1e-2,
                "input grad[{idx}]: numeric {numeric} vs analytic {got}"
            );
        }
    }

    #[test]
    fn transpose_upsamples_dcgan_style() {
        let geom = ConvGeometry::square(4, 2, 1);
        let input = Tensor::full(Shape::new(vec![1, 8, 7, 7]), 0.5);
        let filter = Tensor::full(Shape::new(vec![8, 4, 4, 4]), 0.1);
        let out = conv2d_transpose(&input, &filter, geom).unwrap();
        assert_eq!(out.shape().dims(), &[1, 4, 14, 14]);
    }

    #[test]
    fn alexnet_conv1_parallelism_extends_paper_example() {
        // Paper §III-C counts a single-channel 11x11 window as 121
        // multiplications + 120 additions = 241 units; our dot product
        // includes AlexNet conv1's 3 input channels: 2*121*3 - 1 = 725.
        let geom = ConvGeometry::square(11, 4, 0);
        let cost = conv2d_cost(
            &Shape::new(vec![32, 3, 227, 227]),
            &Shape::new(vec![96, 3, 11, 11]),
            geom,
        )
        .unwrap();
        assert_eq!(cost.ff_parallelism, 2 * 121 * 3 * 4 - 1);
        // The paper's exact example: one single-channel window.
        let single = conv2d_cost(
            &Shape::new(vec![1, 1, 227, 227]),
            &Shape::new(vec![1, 1, 11, 11]),
            geom,
        )
        .unwrap();
        assert_eq!(single.ff_parallelism, 241);
        assert_eq!(cost.class, OffloadClass::FullyMulAdd);
    }

    #[test]
    fn backprop_filter_is_most_memory_intensive() {
        let input = Shape::new(vec![8, 64, 28, 28]);
        let filter = Shape::new(vec![128, 64, 3, 3]);
        let fwd = conv2d_cost(&input, &filter, geom_3x3()).unwrap();
        let bpf = conv2d_backprop_filter_cost(&input, &filter, geom_3x3()).unwrap();
        assert!(bpf.total_bytes() > fwd.total_bytes());
        assert!(matches!(bpf.class, OffloadClass::PartiallyMulAdd { .. }));
    }

    #[test]
    fn forward_mul_count_matches_instrumented() {
        check(24, "forward_mul_count_matches_instrumented", |g| {
            let n = g.draw(1usize..3);
            let c = g.draw(1usize..3);
            let f = g.draw(1usize..3);
            let hw = g.draw(3usize..6);
            let k = g.draw(1usize..3);
            let geom = ConvGeometry::square(k, 1, 0);
            let input = Shape::new(vec![n, c, hw, hw]);
            let filter = Shape::new(vec![f, c, k, k]);
            let cost = conv2d_cost(&input, &filter, geom).unwrap();
            let (oh, ow) = geom.output_hw(hw, hw);
            // Without padding every window position multiplies k*k*c inputs.
            let expected = (n * f * oh * ow * c * k * k) as f64;
            assert_eq!(cost.muls, expected);
            assert!(cost.is_well_formed());
        });
    }

    #[test]
    fn gradient_costs_are_well_formed() {
        check(24, "gradient_costs_are_well_formed", |g| {
            let c = g.draw(1usize..4);
            let f = g.draw(1usize..4);
            let hw = g.draw(4usize..9);
            let geom = geom_3x3();
            let input = Shape::new(vec![2, c, hw, hw]);
            let filter = Shape::new(vec![f, c, 3, 3]);
            let bpf = conv2d_backprop_filter_cost(&input, &filter, geom).unwrap();
            let bpi = conv2d_backprop_input_cost(&input, &filter, geom).unwrap();
            assert!(bpf.is_well_formed());
            assert!(bpi.is_well_formed());
            assert!(bpf.class.ma_fraction() > 0.5);
            assert!(bpi.class.ma_fraction() > 0.5);
        });
    }
}
