//! Seeded deterministic random-graph generation.
//!
//! Differential and property-based tests need arbitrary-but-reproducible
//! dataflow DAGs: the same seed must build the same graph on every run, on
//! every machine, so a failing case can be named by its seed alone. The
//! generator builds layered DAGs mixing op kinds across the offload
//! classes (mul-add heavy MatMul, partially offloadable elementwise ops,
//! CPU-leaning reshapes), which is exactly the placement diversity the
//! scheduler's code paths branch on.

use crate::graph::Graph;
use crate::node::{OpKind, TensorRole};
use pim_common::rng::Xorshift64Star;
use pim_tensor::ops::activation::Activation;
use pim_tensor::ops::elementwise::BinaryOp;
use pim_tensor::ops::matmul::Transpose;
use pim_tensor::Shape;

/// Shape parameters of one generated DAG. The graph is a pure function of
/// the spec: equal specs build byte-identical graphs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GenSpec {
    /// Ranks of ops after the input layer.
    pub layers: usize,
    /// Ops per rank.
    pub width: usize,
    /// Square tensor dimension (every tensor is `dim x dim`, so MatMul
    /// operands always conform).
    pub dim: usize,
    /// The RNG seed driving operand and op-kind choices.
    pub seed: u64,
}

impl GenSpec {
    /// Derives a complete spec from a single seed: layers in 1..=8, width
    /// in 1..=4, dim in {8, 16, 32, 64}. The one-number spelling the
    /// differential suite iterates over.
    pub fn from_seed(seed: u64) -> Self {
        let mut rng = Xorshift64Star::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
        GenSpec {
            layers: 1 + rng.below(8),
            width: 1 + rng.below(4),
            dim: 8 << rng.below(4),
            seed,
        }
    }
}

/// Builds the layered random DAG a spec describes.
///
/// Each rank holds `width` ops, each consuming one or two tensors from the
/// previous rank's frontier; op kinds rotate through elementwise add,
/// MatMul, activations, and reshape so every placement class appears. The
/// result always validates (it is acyclic by construction).
///
/// # Examples
///
/// ```
/// use pim_graph::gen::{random_dag, GenSpec};
///
/// let spec = GenSpec { layers: 3, width: 2, dim: 8, seed: 42 };
/// let g = random_dag(&spec);
/// assert_eq!(g.op_count(), 6);
/// assert!(g.validate().is_ok());
/// // Same spec, same graph — reproducible down to the fingerprint.
/// assert_eq!(g.structural_hash(), random_dag(&spec).structural_hash());
/// ```
pub fn random_dag(spec: &GenSpec) -> Graph {
    let mut g = Graph::new();
    let shape = || Shape::new(vec![spec.dim, spec.dim]);
    let mut frontier: Vec<_> = (0..spec.width)
        .map(|i| g.add_tensor(shape(), TensorRole::Input, format!("in{i}")))
        .collect();
    let mut rng = Xorshift64Star::new(spec.seed);
    for layer in 0..spec.layers {
        let mut new_frontier = Vec::new();
        for slot in 0..spec.width {
            let out = g.add_tensor(shape(), TensorRole::Activation, format!("t{layer}_{slot}"));
            let a = frontier[rng.below(frontier.len())];
            match rng.below(4) {
                0 => {
                    let b = frontier[rng.below(frontier.len())];
                    if a == b {
                        g.add_op(OpKind::Activation(Activation::Relu), vec![a], vec![out])
                            .expect("generated operands exist");
                    } else {
                        g.add_op(OpKind::Binary(BinaryOp::Add), vec![a, b], vec![out])
                            .expect("generated operands exist");
                    }
                }
                1 => {
                    let b = frontier[rng.below(frontier.len())];
                    g.add_op(OpKind::MatMul(Transpose::NONE), vec![a, b], vec![out])
                        .expect("generated operands exist");
                }
                2 => {
                    g.add_op(OpKind::Activation(Activation::Tanh), vec![a], vec![out])
                        .expect("generated operands exist");
                }
                _ => {
                    g.add_op(OpKind::Reshape, vec![a], vec![out])
                        .expect("generated operands exist");
                }
            }
            new_frontier.push(out);
        }
        frontier = new_frontier;
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for seed in 0..20 {
            let spec = GenSpec::from_seed(seed);
            let a = random_dag(&spec);
            let b = random_dag(&spec);
            assert_eq!(a.structural_hash(), b.structural_hash(), "seed {seed}");
            assert_eq!(a.op_count(), spec.layers * spec.width);
        }
    }

    #[test]
    fn distinct_seeds_build_distinct_graphs() {
        let hashes: std::collections::HashSet<u64> = (0..50)
            .map(|seed| random_dag(&GenSpec::from_seed(seed)).structural_hash())
            .collect();
        // Specs collide occasionally (small parameter space), but most
        // seeds must differ structurally.
        assert!(hashes.len() > 40, "only {} distinct graphs", hashes.len());
    }

    #[test]
    fn every_generated_graph_validates() {
        for seed in 0..50 {
            let g = random_dag(&GenSpec::from_seed(seed));
            assert!(g.validate().is_ok(), "seed {seed}");
        }
    }

    #[test]
    fn generator_covers_multiple_op_kinds() {
        let g = random_dag(&GenSpec {
            layers: 8,
            width: 4,
            dim: 8,
            seed: 3,
        });
        let names: std::collections::HashSet<_> =
            g.ops().iter().map(|op| op.kind.tf_name()).collect();
        assert!(names.len() >= 3, "kinds seen: {names:?}");
    }
}
