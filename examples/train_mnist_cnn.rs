//! Functional training: the eager executor really trains a small CNN on a
//! synthetic MNIST-shaped problem, then the same graph is simulated on the
//! heterogeneous PIM. The simulator schedules exactly the graph that just
//! learned.
//!
//! Run with: `cargo run --release --example train_mnist_cnn`

use hetero_pim::graph::builder::{NetBuilder, OptimizerKind};
use hetero_pim::graph::executor::{Executor, Value};
use hetero_pim::graph::TensorRole;
use hetero_pim::models::dataset::image_batch;
use hetero_pim::runtime::engine::{Engine, EngineConfig, RunRequest, SystemPreset, WorkloadSpec};
use hetero_pim::tensor::ops::optimizer::AdamParams;
use std::collections::HashMap;

fn main() -> pim_common::Result<()> {
    // A LeNet-flavored classifier on 16x16 grayscale images, 4 classes.
    let batch = 16;
    let mut net = NetBuilder::new("mnist_cnn");
    let input_id = net.input(batch, 1, 16, 16);
    let mut x = net.conv2d(input_id, 8, 3, 1, 1)?;
    x = net.bias(x)?;
    x = net.relu(x)?;
    x = net.max_pool(x, 2, 2, 0)?;
    x = net.conv2d(x, 16, 3, 1, 1)?;
    x = net.bias(x)?;
    x = net.relu(x)?;
    x = net.max_pool(x, 2, 2, 0)?;
    x = net.flatten(x)?;
    x = net.dense(x, 32)?;
    x = net.relu(x)?;
    let logits = net.dense(x, 4)?;
    let graph = net.finish_classifier(logits, OptimizerKind::Adam)?;

    let labels_id = graph
        .tensors()
        .iter()
        .find(|t| t.role == TensorRole::Labels)
        .expect("classifier has labels")
        .id;

    let mut exec = Executor::new(&graph, 42);
    exec.set_adam(AdamParams {
        learning_rate: 5e-3,
        ..AdamParams::default()
    });

    println!(
        "training a {}-op graph with the eager executor:",
        graph.op_count()
    );
    let mut first = None;
    let mut last = 0.0;
    for step in 0..60 {
        let data = image_batch(batch, 1, 16, 16, 4, 1000 + step as u64);
        let mut feeds = HashMap::new();
        feeds.insert(input_id, Value::Tensor(data.images));
        feeds.insert(labels_id, Value::Indices(data.labels));
        let result = exec.run_step(&graph, feeds)?;
        let loss = result.loss(&graph).expect("loss produced");
        if step % 10 == 0 {
            println!("  step {step:>3}: loss = {loss:.4}");
        }
        first.get_or_insert(loss);
        last = loss;
    }
    let first = first.unwrap();
    println!(
        "loss {first:.4} -> {last:.4} ({:.0}% reduction)\n",
        100.0 * (1.0 - last / first)
    );
    assert!(last < first * 0.5, "training must reduce the loss");

    // Now hand the very same training-step graph to the PIM simulator.
    let workload = WorkloadSpec {
        graph: &graph,
        steps: 3,
        cpu_progr_only: false,
    };
    let report = Engine::new(EngineConfig::preset(SystemPreset::Hetero))
        .execute(&RunRequest::new(&[workload]))?
        .into_report();
    println!(
        "the same step scheduled on Hetero PIM: {:.3} ms/step at {:.0}% fixed-function utilization",
        report.per_step_time().seconds() * 1e3,
        report.ff_utilization * 100.0
    );
    Ok(())
}
