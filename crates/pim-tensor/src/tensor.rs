//! The dense 32-bit floating-point tensor.
//!
//! The paper's fixed-function PIMs are 32-bit floating-point multipliers and
//! adders (§IV-D), so `f32` is the only element type the stack needs.

use crate::shape::Shape;
use pim_common::{PimError, Result};
use serde::{Deserialize, Serialize};

/// A dense, row-major `f32` tensor.
///
/// # Examples
///
/// ```
/// use pim_tensor::{Shape, Tensor};
///
/// let mut t = Tensor::zeros(Shape::new(vec![2, 3]));
/// t.set2(1, 2, 5.0);
/// assert_eq!(t.at2(1, 2), 5.0);
/// assert_eq!(t.numel(), 6);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// A tensor of zeros with the given shape.
    pub fn zeros(shape: Shape) -> Self {
        let n = shape.numel();
        Tensor {
            shape,
            data: vec![0.0; n],
        }
    }

    /// A tensor filled with a constant value.
    pub fn full(shape: Shape, value: f32) -> Self {
        let n = shape.numel();
        Tensor {
            shape,
            data: vec![value; n],
        }
    }

    /// Builds a tensor from raw data.
    ///
    /// # Errors
    ///
    /// Returns [`PimError::ShapeMismatch`] when `data.len()` disagrees with
    /// the shape's element count.
    pub fn from_vec(shape: Shape, data: Vec<f32>) -> Result<Self> {
        if data.len() != shape.numel() {
            return Err(PimError::ShapeMismatch {
                context: "Tensor::from_vec",
                expected: vec![shape.numel()],
                actual: vec![data.len()],
            });
        }
        Ok(Tensor { shape, data })
    }

    /// Builds a tensor by evaluating `f` at every flat index.
    pub fn from_fn(shape: Shape, mut f: impl FnMut(usize) -> f32) -> Self {
        let n = shape.numel();
        Tensor {
            data: (0..n).map(&mut f).collect(),
            shape,
        }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Total element count.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Read-only view of the backing buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Reinterprets the buffer under a new shape with the same element count.
    ///
    /// # Errors
    ///
    /// Returns [`PimError::ShapeMismatch`] when element counts differ.
    pub fn reshaped(mut self, shape: Shape) -> Result<Self> {
        if shape.numel() != self.data.len() {
            return Err(PimError::ShapeMismatch {
                context: "Tensor::reshaped",
                expected: vec![self.data.len()],
                actual: vec![shape.numel()],
            });
        }
        self.shape = shape;
        Ok(self)
    }

    /// Flat offset of `(n, c, h, w)` under NCHW layout.
    ///
    /// # Panics
    ///
    /// Panics in debug builds when the tensor is not 4-D or an index is out
    /// of range.
    #[inline]
    pub fn offset4(&self, n: usize, c: usize, h: usize, w: usize) -> usize {
        let dims = self.shape.dims();
        debug_assert_eq!(dims.len(), 4, "offset4 on non-4D tensor");
        debug_assert!(n < dims[0] && c < dims[1] && h < dims[2] && w < dims[3]);
        ((n * dims[1] + c) * dims[2] + h) * dims[3] + w
    }

    /// Element at `(n, c, h, w)` under NCHW layout.
    #[inline]
    pub fn at4(&self, n: usize, c: usize, h: usize, w: usize) -> f32 {
        self.data[self.offset4(n, c, h, w)]
    }

    /// Writes the element at `(n, c, h, w)`.
    #[inline]
    pub fn set4(&mut self, n: usize, c: usize, h: usize, w: usize, value: f32) {
        let i = self.offset4(n, c, h, w);
        self.data[i] = value;
    }

    /// Adds into the element at `(n, c, h, w)`.
    #[inline]
    pub fn add4(&mut self, n: usize, c: usize, h: usize, w: usize, value: f32) {
        let i = self.offset4(n, c, h, w);
        self.data[i] += value;
    }

    /// Element at `(r, c)` of a matrix.
    #[inline]
    pub fn at2(&self, r: usize, c: usize) -> f32 {
        let dims = self.shape.dims();
        debug_assert_eq!(dims.len(), 2, "at2 on non-matrix tensor");
        debug_assert!(r < dims[0] && c < dims[1]);
        self.data[r * dims[1] + c]
    }

    /// Writes the element at `(r, c)` of a matrix.
    #[inline]
    pub fn set2(&mut self, r: usize, c: usize, value: f32) {
        let dims = self.shape.dims();
        debug_assert_eq!(dims.len(), 2, "set2 on non-matrix tensor");
        debug_assert!(r < dims[0] && c < dims[1]);
        let cols = dims[1];
        self.data[r * cols + c] = value;
    }

    /// Largest absolute difference against another tensor of the same shape.
    ///
    /// # Errors
    ///
    /// Returns [`PimError::ShapeMismatch`] when shapes differ.
    pub fn max_abs_diff(&self, other: &Tensor) -> Result<f32> {
        if self.shape != other.shape {
            return Err(PimError::ShapeMismatch {
                context: "Tensor::max_abs_diff",
                expected: self.shape.dims().to_vec(),
                actual: other.shape.dims().to_vec(),
            });
        }
        Ok(self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max))
    }

    /// Sum of all elements (in `f64` for accuracy).
    pub fn sum(&self) -> f64 {
        self.data.iter().map(|&x| f64::from(x)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_common::rng::check;

    #[test]
    fn zeros_has_right_size() {
        let t = Tensor::zeros(Shape::new(vec![2, 3, 4]));
        assert_eq!(t.numel(), 24);
        assert!(t.data().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn from_vec_validates_length() {
        let shape = Shape::new(vec![2, 2]);
        assert!(Tensor::from_vec(shape.clone(), vec![1.0; 3]).is_err());
        assert!(Tensor::from_vec(shape, vec![1.0; 4]).is_ok());
    }

    #[test]
    fn nchw_indexing_is_row_major() {
        let t = Tensor::from_fn(Shape::new(vec![2, 2, 2, 2]), |i| i as f32);
        assert_eq!(t.at4(0, 0, 0, 0), 0.0);
        assert_eq!(t.at4(0, 0, 0, 1), 1.0);
        assert_eq!(t.at4(0, 0, 1, 0), 2.0);
        assert_eq!(t.at4(0, 1, 0, 0), 4.0);
        assert_eq!(t.at4(1, 0, 0, 0), 8.0);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_fn(Shape::new(vec![2, 6]), |i| i as f32);
        let r = t.clone().reshaped(Shape::new(vec![3, 4])).unwrap();
        assert_eq!(r.data(), t.data());
        assert!(t.reshaped(Shape::new(vec![5, 5])).is_err());
    }

    #[test]
    fn add4_accumulates() {
        let mut t = Tensor::zeros(Shape::new(vec![1, 1, 2, 2]));
        t.add4(0, 0, 1, 1, 2.0);
        t.add4(0, 0, 1, 1, 3.0);
        assert_eq!(t.at4(0, 0, 1, 1), 5.0);
    }

    #[test]
    fn max_abs_diff_checks_shape() {
        let a = Tensor::zeros(Shape::new(vec![2, 2]));
        let b = Tensor::zeros(Shape::new(vec![4]));
        assert!(a.max_abs_diff(&b).is_err());
    }

    #[test]
    fn sum_matches_reference() {
        check(64, "sum_matches_reference", |g| {
            let values = g.vec(1..64, |g| g.draw(-100.0f32..100.0));
            let expected: f64 = values.iter().map(|&x| f64::from(x)).sum();
            let n = values.len();
            let t = Tensor::from_vec(Shape::new(vec![n]), values).unwrap();
            assert!((t.sum() - expected).abs() < 1e-6);
        });
    }

    #[test]
    fn set_then_get_roundtrips() {
        check(64, "set_then_get_roundtrips", |g| {
            let r = g.draw(0usize..4);
            let c = g.draw(0usize..5);
            let v = g.draw(-1e6f32..1e6);
            let mut t = Tensor::zeros(Shape::new(vec![4, 5]));
            t.set2(r, c, v);
            assert_eq!(t.at2(r, c), v);
        });
    }
}
