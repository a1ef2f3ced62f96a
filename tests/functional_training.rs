//! Functional training across the stack: builder -> executor -> real loss
//! reduction, and agreement between execution and characterization.

use hetero_pim::graph::builder::{NetBuilder, OptimizerKind};
use hetero_pim::graph::executor::{Executor, Value};
use hetero_pim::graph::TensorRole;
use hetero_pim::models::dataset::image_batch;
use hetero_pim::tensor::ops::optimizer::AdamParams;
use pim_graph::cost::graph_costs;
use std::collections::HashMap;

fn feeds_for(
    graph: &hetero_pim::graph::Graph,
    input: pim_common::ids::TensorId,
    batch: usize,
    classes: usize,
    seed: u64,
) -> HashMap<pim_common::ids::TensorId, Value> {
    let labels_id = graph
        .tensors()
        .iter()
        .find(|t| t.role == TensorRole::Labels)
        .unwrap()
        .id;
    let data = image_batch(batch, 1, 12, 12, classes, seed);
    let mut feeds = HashMap::new();
    feeds.insert(input, Value::Tensor(data.images));
    feeds.insert(labels_id, Value::Indices(data.labels));
    feeds
}

/// A residual CNN (the ResNet pattern at toy scale) trains end to end:
/// branch-merging backward passes are numerically exercised, not just
/// cost-modeled.
#[test]
fn residual_cnn_trains_to_lower_loss() {
    let batch = 8;
    let mut net = NetBuilder::new("res_toy");
    let input = net.input(batch, 1, 12, 12);
    let trunk = net.conv2d(input, 6, 3, 1, 1).unwrap();
    let trunk = net.relu(trunk).unwrap();
    let branch = net.conv2d(trunk, 6, 3, 1, 1).unwrap();
    let branch = net.relu(branch).unwrap();
    let merged = net.add(trunk, branch).unwrap();
    let pooled = net.max_pool(merged, 2, 2, 0).unwrap();
    let flat = net.flatten(pooled).unwrap();
    let logits = net.dense(flat, 3).unwrap();
    let graph = net.finish_classifier(logits, OptimizerKind::Adam).unwrap();

    let mut exec = Executor::new(&graph, 11);
    exec.set_adam(AdamParams {
        learning_rate: 1e-2,
        ..AdamParams::default()
    });
    let mut first = None;
    let mut last = f32::MAX;
    for step in 0..50 {
        let feeds = feeds_for(&graph, input, batch, 3, 500 + step);
        let result = exec.run_step(&graph, feeds).unwrap();
        let loss = result.loss(&graph).unwrap();
        assert!(loss.is_finite());
        first.get_or_insert(loss);
        last = loss;
    }
    let first = first.unwrap();
    assert!(
        last < first * 0.6,
        "residual training stalled: {first} -> {last}"
    );
}

/// SGD also trains (the ApplyGradientDescent path).
#[test]
fn sgd_classifier_trains() {
    let batch = 8;
    let mut net = NetBuilder::new("sgd_toy");
    let input = net.input(batch, 1, 12, 12);
    let x = net.conv2d(input, 4, 3, 1, 1).unwrap();
    let x = net.relu(x).unwrap();
    let x = net.flatten(x).unwrap();
    let logits = net.dense(x, 2).unwrap();
    let graph = net.finish_classifier(logits, OptimizerKind::Sgd).unwrap();

    let mut exec = Executor::new(&graph, 3);
    let mut first = None;
    let mut last = f32::MAX;
    for step in 0..60 {
        let feeds = feeds_for(&graph, input, batch, 2, 900 + step);
        let result = exec.run_step(&graph, feeds).unwrap();
        last = result.loss(&graph).unwrap();
        first.get_or_insert(last);
    }
    assert!(last < first.unwrap() * 0.7, "SGD stalled at {last}");
}

/// The executed graph and the characterized graph are the same object: the
/// cost model covers every op the executor runs, with finite well-formed
/// profiles.
#[test]
fn execution_and_characterization_agree_on_coverage() {
    let mut net = NetBuilder::new("cover");
    let input = net.input(4, 1, 12, 12);
    let x = net.conv2d(input, 4, 3, 1, 1).unwrap();
    let x = net.bias(x).unwrap();
    let x = net.relu(x).unwrap();
    let x = net.avg_pool(x, 2, 2, 0).unwrap();
    let x = net.batch_norm(x).unwrap();
    let x = net.flatten(x).unwrap();
    let x = net.dropout(x).unwrap();
    let logits = net.dense(x, 2).unwrap();
    let graph = net.finish_classifier(logits, OptimizerKind::Adam).unwrap();

    let costs = graph_costs(&graph).unwrap();
    assert_eq!(costs.len(), graph.op_count());
    assert!(costs
        .iter()
        .all(hetero_pim::tensor::CostProfile::is_well_formed));

    // And the same graph executes numerically (dropout mask fed as ones).
    let mut exec = Executor::new(&graph, 5);
    let mask_info = graph
        .tensors()
        .iter()
        .find(|t| t.name.contains("dropout") && t.name.ends_with("/mask"))
        .unwrap()
        .clone();
    let mut feeds = feeds_for(&graph, input, 4, 2, 1);
    feeds.insert(
        mask_info.id,
        Value::Tensor(hetero_pim::tensor::Tensor::full(mask_info.shape, 1.0)),
    );
    let result = exec.run_step(&graph, feeds).unwrap();
    assert!(result.loss(&graph).unwrap().is_finite());
}
