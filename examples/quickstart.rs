//! Quickstart: build a workload, simulate it on the five systems the
//! paper evaluates (the GPU and four `SystemPreset`s), and print the
//! comparison.
//!
//! Run with: `cargo run --release --example quickstart`

use hetero_pim::models::{Model, ModelKind};
use hetero_pim::sim::configs::{simulate, SystemConfig};

fn main() -> pim_common::Result<()> {
    // AlexNet at the paper's batch size (32); 3 training steps.
    let model = Model::build(ModelKind::AlexNet)?;
    println!(
        "AlexNet: {} ops per training step, {:.1} M parameters\n",
        model.graph().op_count(),
        model.graph().parameter_bytes() as f64 / 4e6,
    );

    println!(
        "{:<12} {:>12} {:>12} {:>10}",
        "system", "s/step", "J/step", "FF util"
    );
    let mut hetero_step = None;
    for config in SystemConfig::evaluation_set() {
        let report = simulate(&model, &config, 3)?;
        println!(
            "{:<12} {:>12.4} {:>12.2} {:>10.2}",
            config.name(),
            report.per_step_time().seconds(),
            report.dynamic_energy.joules() / report.steps as f64,
            report.ff_utilization,
        );
        if config.name() == "Hetero PIM" {
            hetero_step = Some(report.per_step_time());
        }
    }

    if let Some(step) = hetero_step {
        println!(
            "\nHetero PIM trains one AlexNet minibatch in {:.1} ms — the \
             heterogeneous pool plus the runtime's recursive kernels and \
             operation pipeline at work.",
            step.seconds() * 1e3
        );
    }
    Ok(())
}
