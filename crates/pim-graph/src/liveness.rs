//! Tensor liveness analysis: peak live memory of one training step.
//!
//! The GPU baseline's working-set spill (the reason ResNet-50 favors the
//! PIM, §VI-A) needs an estimate of how much memory a step keeps live. A
//! topological sweep with last-use tracking gives the schedule-dependent
//! peak: a tensor becomes live when produced and dies after its last
//! consumer.

use crate::graph::Graph;
use crate::node::TensorRole;
use pim_common::ids::{OpId, TensorId};
use pim_common::Result;
use serde::Serialize;
use std::collections::HashMap;

/// Result of the liveness sweep.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LivenessReport {
    /// Peak bytes of simultaneously live activation tensors.
    pub peak_activation_bytes: usize,
    /// Sum of all activation tensor sizes (the no-reuse upper bound).
    pub total_activation_bytes: usize,
    /// Bytes of parameters (always live).
    pub parameter_bytes: usize,
    /// The op at which the activation peak occurs.
    pub peak_at: Option<OpId>,
}

/// Runs the liveness sweep in topological order.
///
/// # Examples
///
/// ```
/// use pim_graph::builder::{NetBuilder, OptimizerKind};
/// use pim_graph::liveness::analyze;
///
/// # fn main() -> pim_common::Result<()> {
/// let mut net = NetBuilder::new("l");
/// let x = net.input(2, 1, 8, 8);
/// let x = net.conv2d(x, 4, 3, 1, 1)?;
/// let x = net.flatten(x)?;
/// let logits = net.dense(x, 2)?;
/// let graph = net.finish_classifier(logits, OptimizerKind::Sgd)?;
/// let report = analyze(&graph)?;
/// assert!(report.peak_activation_bytes <= report.total_activation_bytes);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Propagates topological-sort failures.
pub fn analyze(graph: &Graph) -> Result<LivenessReport> {
    let order = graph.topo_order()?;
    let mut position = HashMap::new();
    for (i, id) in order.iter().enumerate() {
        position.insert(*id, i);
    }
    // Last use of each activation tensor, by topological position.
    let mut last_use: HashMap<TensorId, usize> = HashMap::new();
    for op in graph.ops() {
        let pos = position[&op.id];
        for tid in &op.inputs {
            let slot = last_use.entry(*tid).or_insert(pos);
            *slot = (*slot).max(pos);
        }
    }
    let is_activation = |tid: TensorId| -> Result<Option<usize>> {
        let info = graph.tensor(tid)?;
        Ok((info.role == TensorRole::Activation).then(|| info.shape.size_bytes()))
    };

    let mut live = 0usize;
    let mut peak = 0usize;
    let mut peak_at = None;
    // Tensors die after their last consumer, grouped by position.
    let mut deaths: HashMap<usize, Vec<TensorId>> = HashMap::new();
    for (&tid, &pos) in &last_use {
        deaths.entry(pos).or_default().push(tid);
    }
    for (pos, id) in order.iter().enumerate() {
        let op = graph.op(*id)?;
        for &out in &op.outputs {
            if let Some(bytes) = is_activation(out)? {
                live += bytes;
            }
        }
        if live > peak {
            peak = live;
            peak_at = Some(*id);
        }
        if let Some(dying) = deaths.get(&pos) {
            for &tid in dying {
                if let Some(bytes) = is_activation(tid)? {
                    live = live.saturating_sub(bytes);
                }
            }
        }
    }
    let total_activation_bytes = graph
        .tensors()
        .iter()
        .filter(|t| t.role == TensorRole::Activation)
        .map(|t| t.shape.size_bytes())
        .sum();
    Ok(LivenessReport {
        peak_activation_bytes: peak,
        total_activation_bytes,
        parameter_bytes: graph.parameter_bytes(),
        peak_at,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{NetBuilder, OptimizerKind};

    fn cnn(convs: usize) -> Graph {
        let mut net = NetBuilder::new("lv");
        let mut x = net.input(2, 2, 16, 16);
        for _ in 0..convs {
            x = net.conv2d(x, 2, 3, 1, 1).unwrap();
            x = net.relu(x).unwrap();
        }
        let x = net.flatten(x).unwrap();
        let logits = net.dense(x, 2).unwrap();
        net.finish_classifier(logits, OptimizerKind::Sgd).unwrap()
    }

    #[test]
    fn peak_is_bounded_by_total() {
        let g = cnn(4);
        let r = analyze(&g).unwrap();
        assert!(r.peak_activation_bytes > 0);
        assert!(r.peak_activation_bytes <= r.total_activation_bytes);
        assert!(r.peak_at.is_some());
    }

    #[test]
    fn deeper_networks_reuse_more() {
        // In a chain, buffers die quickly: the peak's share of the
        // no-reuse total shrinks with depth while the peak grows
        // sublinearly.
        let shallow = analyze(&cnn(2)).unwrap();
        let deep = analyze(&cnn(10)).unwrap();
        let peak_share =
            |r: &LivenessReport| r.peak_activation_bytes as f64 / r.total_activation_bytes as f64;
        assert!(peak_share(&deep) < peak_share(&shallow));
        assert!((deep.peak_activation_bytes as f64) < shallow.peak_activation_bytes as f64 * 5.0);
    }
}
