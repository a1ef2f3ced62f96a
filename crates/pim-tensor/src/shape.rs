//! Tensor shapes and the convolution geometry helpers.

use pim_common::{PimError, Result};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The dimensions of a tensor, outermost first.
///
/// 4-D image tensors use NCHW layout (batch, channels, height, width);
/// 2-D matrices are row-major (rows, cols).
///
/// # Examples
///
/// ```
/// use pim_tensor::shape::Shape;
///
/// let s = Shape::new(vec![32, 3, 224, 224]);
/// assert_eq!(s.numel(), 32 * 3 * 224 * 224);
/// assert_eq!(s.rank(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Shape(Vec<usize>);

impl Shape {
    /// Wraps a dimension list.
    pub fn new(dims: Vec<usize>) -> Self {
        Shape(dims)
    }

    /// A scalar shape (rank 0, one element).
    pub fn scalar() -> Self {
        Shape(Vec::new())
    }

    /// The dimension list.
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Total element count (1 for a scalar).
    pub fn numel(&self) -> usize {
        self.0.iter().product()
    }

    /// Size of one dimension.
    ///
    /// # Panics
    ///
    /// Panics if `axis` is out of range.
    pub fn dim(&self, axis: usize) -> usize {
        self.0[axis]
    }

    /// Interprets the shape as NCHW, failing for non-4-D shapes.
    ///
    /// # Errors
    ///
    /// Returns [`PimError::ShapeMismatch`] if the rank is not 4.
    pub fn as_nchw(&self) -> Result<(usize, usize, usize, usize)> {
        match self.0.as_slice() {
            &[n, c, h, w] => Ok((n, c, h, w)),
            _ => Err(PimError::ShapeMismatch {
                context: "Shape::as_nchw",
                expected: vec![4],
                actual: vec![self.rank()],
            }),
        }
    }

    /// Interprets the shape as a matrix (rows, cols).
    ///
    /// # Errors
    ///
    /// Returns [`PimError::ShapeMismatch`] if the rank is not 2.
    pub fn as_matrix(&self) -> Result<(usize, usize)> {
        match self.0.as_slice() {
            &[r, c] => Ok((r, c)),
            _ => Err(PimError::ShapeMismatch {
                context: "Shape::as_matrix",
                expected: vec![2],
                actual: vec![self.rank()],
            }),
        }
    }

    /// Byte size of the tensor at 32-bit floating point.
    pub fn size_bytes(&self) -> usize {
        self.numel() * std::mem::size_of::<f32>()
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, "x")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape::new(dims)
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims.to_vec())
    }
}

/// Spatial geometry of a 2-D convolution or pooling window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ConvGeometry {
    /// Kernel height.
    pub kernel_h: usize,
    /// Kernel width.
    pub kernel_w: usize,
    /// Vertical stride.
    pub stride_h: usize,
    /// Horizontal stride.
    pub stride_w: usize,
    /// Rows of zero padding added to each of top and bottom.
    pub pad_h: usize,
    /// Columns of zero padding added to each of left and right.
    pub pad_w: usize,
}

impl ConvGeometry {
    /// Square kernel with equal stride and padding in both dimensions.
    ///
    /// # Examples
    ///
    /// ```
    /// use pim_tensor::shape::ConvGeometry;
    /// let g = ConvGeometry::square(3, 1, 1);
    /// assert_eq!(g.output_hw(224, 224), (224, 224));
    /// ```
    pub const fn square(kernel: usize, stride: usize, pad: usize) -> Self {
        ConvGeometry {
            kernel_h: kernel,
            kernel_w: kernel,
            stride_h: stride,
            stride_w: stride,
            pad_h: pad,
            pad_w: pad,
        }
    }

    /// Output spatial size for an input of `h` by `w`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the kernel does not fit in the padded input.
    pub fn output_hw(&self, h: usize, w: usize) -> (usize, usize) {
        debug_assert!(
            h + 2 * self.pad_h >= self.kernel_h,
            "kernel taller than input"
        );
        debug_assert!(
            w + 2 * self.pad_w >= self.kernel_w,
            "kernel wider than input"
        );
        (
            (h + 2 * self.pad_h - self.kernel_h) / self.stride_h + 1,
            (w + 2 * self.pad_w - self.kernel_w) / self.stride_w + 1,
        )
    }

    /// Output spatial size of the transposed (fractionally strided)
    /// convolution used by DCGAN's generator.
    pub fn transpose_output_hw(&self, h: usize, w: usize) -> (usize, usize) {
        (
            (h - 1) * self.stride_h + self.kernel_h - 2 * self.pad_h,
            (w - 1) * self.stride_w + self.kernel_w - 2 * self.pad_w,
        )
    }

    /// Elements in one kernel window (per input channel).
    pub fn window_len(&self) -> usize {
        self.kernel_h * self.kernel_w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_common::rng::check;

    #[test]
    fn numel_of_scalar_is_one() {
        assert_eq!(Shape::scalar().numel(), 1);
        assert_eq!(Shape::scalar().rank(), 0);
    }

    #[test]
    fn nchw_accessor_checks_rank() {
        assert!(Shape::new(vec![1, 2, 3]).as_nchw().is_err());
        assert_eq!(
            Shape::new(vec![2, 3, 4, 5]).as_nchw().unwrap(),
            (2, 3, 4, 5)
        );
    }

    #[test]
    fn matrix_accessor_checks_rank() {
        assert!(Shape::new(vec![1, 2, 3]).as_matrix().is_err());
        assert_eq!(Shape::new(vec![6, 7]).as_matrix().unwrap(), (6, 7));
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(
            Shape::new(vec![32, 3, 224, 224]).to_string(),
            "[32x3x224x224]"
        );
    }

    #[test]
    fn alexnet_first_conv_geometry() {
        // AlexNet conv1: 11x11 stride 4 on 227x227.
        let g = ConvGeometry::square(11, 4, 0);
        assert_eq!(g.output_hw(227, 227), (55, 55));
    }

    #[test]
    fn vgg_conv_preserves_spatial_size() {
        let g = ConvGeometry::square(3, 1, 1);
        assert_eq!(g.output_hw(224, 224), (224, 224));
    }

    #[test]
    fn dcgan_transpose_doubles() {
        let g = ConvGeometry::square(4, 2, 1);
        assert_eq!(g.transpose_output_hw(7, 7), (14, 14));
    }

    #[test]
    fn transpose_inverts_forward() {
        check(64, "transpose_inverts_forward", |g| {
            let h = g.draw(4usize..64);
            let stride = g.draw(1usize..3);
            // For kernel=stride (non-overlapping), transpose exactly inverts.
            let g = ConvGeometry::square(stride, stride, 0);
            let (oh, _) = g.output_hw(h * stride, h * stride);
            let (rh, _) = g.transpose_output_hw(oh, oh);
            assert_eq!(rh, h * stride);
        });
    }

    #[test]
    fn numel_matches_product() {
        check(64, "numel_matches_product", |g| {
            let dims = g.vec(0..5, |g| g.draw(1usize..8));
            let expected: usize = dims.iter().product();
            assert_eq!(Shape::new(dims).numel(), expected);
        });
    }
}
