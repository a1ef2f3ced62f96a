//! Deterministic synthetic datasets.
//!
//! The paper trains on ImageNet, MNIST, PTB, and the TensorFlow
//! "questions-words" set. Data *values* never influence the runtime's
//! schedule — only tensor shapes do — so these generators produce
//! shape-identical synthetic batches (documented substitution in
//! DESIGN.md). For the functional-training examples they additionally embed
//! a learnable class signal so losses genuinely fall.

use pim_tensor::init::seeded_rng;
use pim_tensor::{Shape, Tensor};
use rand::RngExt;

/// A labeled image batch.
#[derive(Debug, Clone)]
pub struct ImageBatch {
    /// `[n, c, h, w]` pixel data.
    pub images: Tensor,
    /// One class index per image.
    pub labels: Vec<usize>,
}

/// Generates a synthetic labeled image batch with a learnable signal: each
/// class `k` brightens a distinct horizontal band of the image.
///
/// # Examples
///
/// ```
/// use pim_models::dataset::image_batch;
/// let batch = image_batch(8, 1, 16, 16, 4, 42);
/// assert_eq!(batch.images.shape().dims(), &[8, 1, 16, 16]);
/// assert!(batch.labels.iter().all(|&l| l < 4));
/// ```
pub fn image_batch(
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    classes: usize,
    seed: u64,
) -> ImageBatch {
    let mut rng = seeded_rng(seed);
    let labels: Vec<usize> = (0..n).map(|_| rng.random_range(0..classes)).collect();
    let band = (h / classes).max(1);
    let mut images = Tensor::zeros(Shape::new(vec![n, c, h, w]));
    for (i, &label) in labels.iter().enumerate() {
        for ci in 0..c {
            for hi in 0..h {
                for wi in 0..w {
                    let noise: f32 = rng.random_range(-0.1..0.1);
                    let signal = if hi / band == label.min(h / band) {
                        1.0
                    } else {
                        0.0
                    };
                    images.set4(i, ci, hi, wi, signal + noise);
                }
            }
        }
    }
    ImageBatch { images, labels }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn image_batch_is_deterministic() {
        let a = image_batch(4, 1, 8, 8, 2, 7);
        let b = image_batch(4, 1, 8, 8, 2, 7);
        assert_eq!(a.images, b.images);
        assert_eq!(a.labels, b.labels);
    }

    #[test]
    fn labels_are_in_range() {
        let b = image_batch(32, 1, 28, 28, 10, 3);
        assert!(b.labels.iter().all(|&l| l < 10));
        assert_eq!(b.images.shape().dims(), &[32, 1, 28, 28]);
    }
}
