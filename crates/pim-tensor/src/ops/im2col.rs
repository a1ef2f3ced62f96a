//! The im2col + GEMM convolution path.
//!
//! Framework CPU kernels (the ones the paper profiles) lower `Conv2D` to an
//! im2col unfold followed by a matrix multiply. This module implements that
//! second, production-style path; its equivalence to the direct convolution
//! is property-tested, and its unfold is what justifies the input-stream
//! amplification factor in the conv cost model.

use crate::ops::matmul::{matmul, Transpose};
use crate::shape::{ConvGeometry, Shape};
use crate::tensor::Tensor;
use pim_common::Result;

/// Unfolds an NCHW input into the `[c*kh*kw, n*oh*ow]` im2col matrix.
///
/// Each column is one receptive-field window; zero padding materializes as
/// zero rows. The unfold *re-reads* every input element once per
/// overlapping window position — the traffic amplification the cost model
/// charges.
///
/// # Examples
///
/// ```
/// use pim_tensor::ops::im2col::im2col;
/// use pim_tensor::shape::{ConvGeometry, Shape};
/// use pim_tensor::Tensor;
///
/// # fn main() -> pim_common::Result<()> {
/// let x = Tensor::from_fn(Shape::new(vec![1, 1, 2, 2]), |i| i as f32);
/// let unfolded = im2col(&x, ConvGeometry::square(2, 1, 0))?;
/// assert_eq!(unfolded.shape().dims(), &[4, 1]);
/// assert_eq!(unfolded.data(), &[0.0, 1.0, 2.0, 3.0]);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Returns a shape error for non-4-D inputs.
pub fn im2col(input: &Tensor, geom: ConvGeometry) -> Result<Tensor> {
    let (n, c, h, w) = input.shape().as_nchw()?;
    let (oh, ow) = geom.output_hw(h, w);
    let rows = c * geom.kernel_h * geom.kernel_w;
    let cols = n * oh * ow;
    let mut out = Tensor::zeros(Shape::new(vec![rows, cols]));
    for ni in 0..n {
        for oy in 0..oh {
            for ox in 0..ow {
                let col = (ni * oh + oy) * ow + ox;
                for ci in 0..c {
                    for ky in 0..geom.kernel_h {
                        for kx in 0..geom.kernel_w {
                            let row = (ci * geom.kernel_h + ky) * geom.kernel_w + kx;
                            let iy = (oy * geom.stride_h + ky) as isize - geom.pad_h as isize;
                            let ix = (ox * geom.stride_w + kx) as isize - geom.pad_w as isize;
                            if iy >= 0 && ix >= 0 && (iy as usize) < h && (ix as usize) < w {
                                out.set2(row, col, input.at4(ni, ci, iy as usize, ix as usize));
                            }
                        }
                    }
                }
            }
        }
    }
    Ok(out)
}

/// Forward convolution via im2col + GEMM — the lowering TensorFlow's CPU
/// kernels use. Numerically equivalent to [`crate::ops::conv::conv2d`].
///
/// # Errors
///
/// Returns a shape error when the operands are inconsistent.
pub fn conv2d_gemm(input: &Tensor, filter: &Tensor, geom: ConvGeometry) -> Result<Tensor> {
    let (n, _c, h, w) = input.shape().as_nchw()?;
    let (f, fc, kh, kw) = filter.shape().as_nchw()?;
    let (oh, ow) = geom.output_hw(h, w);
    let unfolded = im2col(input, geom)?;
    // Filters flatten to [f, c*kh*kw]; GEMM gives [f, n*oh*ow].
    let filter_mat = filter.clone().reshaped(Shape::new(vec![f, fc * kh * kw]))?;
    let gemm = matmul(&filter_mat, &unfolded, Transpose::NONE)?;
    // Rearrange [f, n*oh*ow] -> [n, f, oh, ow].
    let mut out = Tensor::zeros(Shape::new(vec![n, f, oh, ow]));
    for fi in 0..f {
        for ni in 0..n {
            for oy in 0..oh {
                for ox in 0..ow {
                    let col = (ni * oh + oy) * ow + ox;
                    out.set4(ni, fi, oy, ox, gemm.at2(fi, col));
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::conv::conv2d;
    use pim_common::rng::check;

    #[test]
    fn gemm_path_matches_direct_convolution() {
        let geom = ConvGeometry::square(3, 1, 1);
        let input = Tensor::from_fn(Shape::new(vec![2, 3, 6, 6]), |i| {
            ((i * 7) % 13) as f32 * 0.1
        });
        let filter = Tensor::from_fn(Shape::new(vec![4, 3, 3, 3]), |i| ((i * 5) % 9) as f32 * 0.2);
        let direct = conv2d(&input, &filter, geom).unwrap();
        let gemm = conv2d_gemm(&input, &filter, geom).unwrap();
        assert!(direct.max_abs_diff(&gemm).unwrap() < 1e-4);
    }

    #[test]
    fn gemm_equals_direct_for_random_geometry() {
        check(16, "gemm_equals_direct_for_random_geometry", |g| {
            let n = g.draw(1usize..3);
            let c = g.draw(1usize..3);
            let f = g.draw(1usize..3);
            let hw = g.draw(3usize..7);
            let k = g.draw(1usize..3);
            let stride = g.draw(1usize..3);
            if hw < k {
                return;
            }
            let geom = ConvGeometry::square(k, stride, 0);
            let input = Tensor::from_fn(Shape::new(vec![n, c, hw, hw]), |i| {
                ((i * 11) % 23) as f32 * 0.1 - 1.0
            });
            let filter = Tensor::from_fn(Shape::new(vec![f, c, k, k]), |i| {
                ((i * 3) % 7) as f32 * 0.3 - 0.9
            });
            let direct = conv2d(&input, &filter, geom).unwrap();
            let gemm = conv2d_gemm(&input, &filter, geom).unwrap();
            assert!(direct.max_abs_diff(&gemm).unwrap() < 1e-3);
        });
    }
}
