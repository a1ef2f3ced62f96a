//! Embedding lookup and its scatter gradient (Word2vec, LSTM input layer).
//!
//! These are gather/scatter operations: random-pattern data movement with a
//! trickle of arithmetic, evaluated in the paper's mixed-workload study
//! (§VI-F) where Word2vec and LSTM co-run with a CNN.

use crate::cost::{CostProfile, OffloadClass};
use crate::shape::Shape;
use crate::tensor::Tensor;
use pim_common::access::AccessPattern;
use pim_common::units::Bytes;
use pim_common::{PimError, Result};

/// Gathers rows of `table` (`[V, D]`) selected by `indices` into a
/// `[indices.len(), D]` matrix (`EmbeddingLookup` / `Gather`).
///
/// # Examples
///
/// ```
/// use pim_tensor::ops::embedding::embedding_lookup;
/// use pim_tensor::{Shape, Tensor};
///
/// # fn main() -> pim_common::Result<()> {
/// let table = Tensor::from_fn(Shape::new(vec![3, 2]), |i| i as f32);
/// let out = embedding_lookup(&table, &[2, 0])?;
/// assert_eq!(out.data(), &[4.0, 5.0, 0.0, 1.0]);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Returns [`PimError::InvalidArgument`] for out-of-range indices and
/// [`PimError::ShapeMismatch`] for non-matrix tables.
pub fn embedding_lookup(table: &Tensor, indices: &[usize]) -> Result<Tensor> {
    let (v, d) = table.shape().as_matrix()?;
    let mut out = Tensor::zeros(Shape::new(vec![indices.len(), d]));
    for (row, &idx) in indices.iter().enumerate() {
        if idx >= v {
            return Err(PimError::invalid(
                "embedding_lookup",
                format!("index {idx} out of range for vocabulary {v}"),
            ));
        }
        for j in 0..d {
            out.set2(row, j, table.at2(idx, j));
        }
    }
    Ok(out)
}

/// Scatters gradients back into a zeroed table-shaped tensor
/// (`EmbeddingGrad` / the sparse half of `ApplyAdam` for embeddings).
///
/// # Errors
///
/// Returns [`PimError::ShapeMismatch`] when `grad_output` is not
/// `[indices.len(), D]`, and [`PimError::InvalidArgument`] for out-of-range
/// indices.
pub fn embedding_grad(
    table_shape: &Shape,
    grad_output: &Tensor,
    indices: &[usize],
) -> Result<Tensor> {
    let (v, d) = table_shape.as_matrix()?;
    let (rows, gd) = grad_output.shape().as_matrix()?;
    if rows != indices.len() || gd != d {
        return Err(PimError::ShapeMismatch {
            context: "embedding_grad",
            expected: vec![indices.len(), d],
            actual: vec![rows, gd],
        });
    }
    let mut grad_table = Tensor::zeros(table_shape.clone());
    for (row, &idx) in indices.iter().enumerate() {
        if idx >= v {
            return Err(PimError::invalid(
                "embedding_grad",
                format!("index {idx} out of range for vocabulary {v}"),
            ));
        }
        for j in 0..d {
            let cur = grad_table.at2(idx, j);
            grad_table.set2(idx, j, cur + grad_output.at2(row, j));
        }
    }
    Ok(grad_table)
}

/// Analytic cost of the lookup: random-pattern reads of the selected rows.
pub fn embedding_lookup_cost(dim: usize, batch: usize) -> CostProfile {
    let moved = (dim * batch) as f64 * 4.0;
    CostProfile::movement(Bytes::new(moved), Bytes::new(moved), AccessPattern::Random)
}

/// Analytic cost of the scatter gradient: random-pattern read-modify-write
/// plus one add per element.
pub fn embedding_grad_cost(dim: usize, batch: usize) -> CostProfile {
    let n = (dim * batch) as f64;
    CostProfile::compute(
        0.0,
        n,
        n, // index decode
        Bytes::new(n * 4.0 * 2.0),
        Bytes::new(n * 4.0),
        OffloadClass::NonMulAdd,
        0,
    )
    .with_pattern(AccessPattern::Random)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_common::rng::check;

    #[test]
    fn lookup_gathers_rows() {
        let table = Tensor::from_fn(Shape::new(vec![4, 3]), |i| i as f32);
        let out = embedding_lookup(&table, &[1, 1, 3]).unwrap();
        assert_eq!(out.shape().dims(), &[3, 3]);
        assert_eq!(out.at2(0, 0), 3.0);
        assert_eq!(out.at2(2, 2), 11.0);
    }

    #[test]
    fn lookup_rejects_out_of_range() {
        let table = Tensor::zeros(Shape::new(vec![2, 2]));
        assert!(embedding_lookup(&table, &[2]).is_err());
    }

    #[test]
    fn grad_accumulates_duplicate_indices() {
        let shape = Shape::new(vec![3, 2]);
        let g = Tensor::full(Shape::new(vec![2, 2]), 1.0);
        let grad = embedding_grad(&shape, &g, &[1, 1]).unwrap();
        assert_eq!(grad.at2(1, 0), 2.0);
        assert_eq!(grad.at2(0, 0), 0.0);
    }

    #[test]
    fn costs_use_random_pattern() {
        assert_eq!(
            embedding_lookup_cost(128, 64).pattern,
            AccessPattern::Random
        );
        assert_eq!(embedding_grad_cost(128, 64).pattern, AccessPattern::Random);
    }

    #[test]
    fn lookup_then_grad_preserves_mass() {
        check(64, "lookup_then_grad_preserves_mass", |g| {
            let v = g.draw(2usize..8);
            let d = g.draw(1usize..6);
            let idx_seed = g.vec(1..10, |g| g.draw(0usize..1000));
            let table = Tensor::zeros(Shape::new(vec![v, d]));
            let indices: Vec<usize> = idx_seed.iter().map(|&i| i % v).collect();
            let looked = embedding_lookup(&table, &indices).unwrap();
            let g = Tensor::full(looked.shape().clone(), 1.0);
            let grad = embedding_grad(table.shape(), &g, &indices).unwrap();
            assert!((grad.sum() - g.sum()).abs() < 1e-6);
        });
    }
}
