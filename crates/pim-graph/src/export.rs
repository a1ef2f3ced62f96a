//! Graph inspection utilities: Graphviz DOT export and summary statistics.
//!
//! Useful for auditing the training-step graphs the model zoo emits (the
//! TensorBoard role in the paper's profiling framework, Fig. 1).

use crate::graph::Graph;
use crate::node::TensorRole;
use pim_common::Result;
use serde::Serialize;
use std::fmt::Write as _;

/// Renders the graph in Graphviz DOT format: ops as boxes, tensors as
/// edges labeled with their shapes.
///
/// # Examples
///
/// ```
/// use pim_graph::builder::{NetBuilder, OptimizerKind};
/// use pim_graph::export::to_dot;
///
/// # fn main() -> pim_common::Result<()> {
/// let mut net = NetBuilder::new("d");
/// let x = net.input_matrix(2, 4);
/// let logits = net.dense(x, 2)?;
/// let graph = net.finish_classifier(logits, OptimizerKind::Sgd)?;
/// let dot = to_dot(&graph)?;
/// assert!(dot.starts_with("digraph"));
/// assert!(dot.contains("MatMul"));
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Propagates graph-consistency failures.
pub fn to_dot(graph: &Graph) -> Result<String> {
    let mut out = String::from("digraph training_step {\n  rankdir=TB;\n  node [shape=box];\n");
    for op in graph.ops() {
        writeln!(
            out,
            "  op{} [label=\"{}\"];",
            op.id.index(),
            op.kind.tf_name()
        )
        .ok();
    }
    for op in graph.ops() {
        for tid in &op.inputs {
            if let Some(producer) = graph.producer(*tid) {
                let shape = &graph.tensor(*tid)?.shape;
                writeln!(
                    out,
                    "  op{} -> op{} [label=\"{shape}\"];",
                    producer.index(),
                    op.id.index()
                )
                .ok();
            }
        }
    }
    out.push_str("}\n");
    Ok(out)
}

/// Structural summary of a training-step graph.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct GraphStats {
    /// Operation count.
    pub ops: usize,
    /// Tensor count.
    pub tensors: usize,
    /// Trainable parameter elements.
    pub parameters: usize,
    /// Bytes of activation tensors (one step's intermediates).
    pub activation_bytes: usize,
    /// Longest dependency chain (graph depth).
    pub depth: usize,
    /// Maximum operations simultaneously ready under infinite resources
    /// (graph width — the available operation-level parallelism).
    pub max_width: usize,
}

/// Computes the summary statistics.
///
/// # Errors
///
/// Propagates topological-sort failures.
pub fn stats(graph: &Graph) -> Result<GraphStats> {
    let adjacency = graph.adjacency()?;
    let mut depth_of = vec![0usize; graph.op_count()];
    let mut depth = 0;
    for &id in &adjacency.topo {
        let d = adjacency.deps[id]
            .iter()
            .map(|&dep| depth_of[dep] + 1)
            .max()
            .unwrap_or(1);
        depth_of[id] = d;
        depth = depth.max(d);
    }
    let mut width_at = vec![0usize; depth + 1];
    for d in &depth_of {
        width_at[*d] += 1;
    }
    let parameters = graph
        .tensors()
        .iter()
        .filter(|t| t.role == TensorRole::Parameter)
        .map(|t| t.shape.numel())
        .sum();
    let activation_bytes = graph
        .tensors()
        .iter()
        .filter(|t| t.role == TensorRole::Activation)
        .map(|t| t.shape.size_bytes())
        .sum();
    Ok(GraphStats {
        ops: graph.op_count(),
        tensors: graph.tensors().len(),
        parameters,
        activation_bytes,
        depth,
        max_width: width_at.into_iter().max().unwrap_or(0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{NetBuilder, OptimizerKind};

    fn tiny() -> Graph {
        let mut net = NetBuilder::new("t");
        let x = net.input(1, 1, 8, 8);
        let x = net.conv2d(x, 2, 3, 1, 1).unwrap();
        let x = net.relu(x).unwrap();
        let x = net.flatten(x).unwrap();
        let logits = net.dense(x, 2).unwrap();
        net.finish_classifier(logits, OptimizerKind::Sgd).unwrap()
    }

    #[test]
    fn dot_lists_every_op_once() {
        let g = tiny();
        let dot = to_dot(&g).unwrap();
        let boxes = dot
            .lines()
            .filter(|l| l.contains("[label=") && !l.contains("->"))
            .count();
        assert_eq!(boxes, g.op_count());
        assert!(dot.contains("Conv2D"));
        assert!(dot.ends_with("}\n"));
    }

    #[test]
    fn stats_report_chain_structure() {
        let g = tiny();
        let s = stats(&g).unwrap();
        assert_eq!(s.ops, g.op_count());
        assert!(s.depth >= 5, "depth {}", s.depth);
        assert!(s.max_width >= 1);
        assert!(s.parameters > 0);
        assert!(s.activation_bytes > 0);
    }

    #[test]
    fn branching_increases_width() {
        let mut net = NetBuilder::new("w");
        let x = net.input(1, 2, 8, 8);
        let a = net.conv2d(x, 2, 3, 1, 1).unwrap();
        let b = net.conv2d(x, 2, 3, 1, 1).unwrap();
        let m = net.add(a, b).unwrap();
        let f = net.flatten(m).unwrap();
        let logits = net.dense(f, 2).unwrap();
        let g = net.finish_classifier(logits, OptimizerKind::Sgd).unwrap();
        assert!(stats(&g).unwrap().max_width >= 2);
    }
}
