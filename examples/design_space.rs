//! Design-space exploration: the hardware-side studies of the paper —
//! logic-die area (the 444-unit result), thermal-aware placement, the
//! 1P/4P/16P trade-off, and frequency scaling.
//!
//! Run with: `cargo run --release --example design_space`

use hetero_pim::hw::placement::{thermal_aware_placement, uniform_placement};
use hetero_pim::hw::power::{progr_scaling_points, LogicDieBudget};
use hetero_pim::hw::thermal::{evaluate_placements, peak_temperature, THERMAL_LIMIT_C};
use hetero_pim::mem::stack::StackConfig;
use hetero_pim::models::{Model, ModelKind};
use hetero_pim::runtime::engine::{Engine, EngineConfig, RunRequest, SystemPreset, WorkloadSpec};

fn main() -> pim_common::Result<()> {
    // 1. Area: how many fixed-function units fit beside the ARM cores?
    let budget = LogicDieBudget::paper_baseline();
    println!(
        "logic-die design space ({} mm2 for compute):",
        budget.compute_area_mm2
    );
    for cores in [1usize, 4, 16] {
        let units = budget.max_ff_units(cores)?;
        println!(
            "  {cores:>2} ARM cores -> {units} fixed-function units ({:.1} W)",
            budget.config_power(cores, units).watts()
        );
    }

    // 2. Thermal: edge/corner-heavy placement vs uniform.
    let report = evaluate_placements(444, 32, 0.027);
    println!(
        "\nthermal check (limit {THERMAL_LIMIT_C} C): thermal-aware peak {:.1} C vs uniform {:.1} C",
        report.thermal_aware_peak_c, report.uniform_peak_c
    );
    assert!(report.within_limit);
    let aware = peak_temperature(&thermal_aware_placement(444, 32), 0.027);
    let uniform = peak_temperature(&uniform_placement(444, 32), 0.027);
    assert!(aware < uniform, "the placement policy must pay off");

    // 3. Performance across the 1P/4P/16P points and frequencies, VGG-19.
    let model = Model::build_with_batch(ModelKind::Vgg19, 16)?;
    let workload = WorkloadSpec {
        graph: model.graph(),
        steps: 2,
        cpu_progr_only: false,
    };
    println!("\nVGG-19 across the design points:");
    for p in progr_scaling_points(&budget)? {
        let cfg =
            EngineConfig::preset(SystemPreset::Hetero).with_pim_complement(p.arm_cores, p.ff_units);
        let r = Engine::new(cfg)
            .execute(&RunRequest::new(&[workload]))?
            .into_report();
        println!(
            "  {}P / {} FF units: {:.4} s/step",
            p.arm_cores,
            p.ff_units,
            r.per_step_time().seconds()
        );
    }
    println!("\nVGG-19 across stack frequencies:");
    for mult in [1.0, 2.0, 4.0] {
        let stack = StackConfig::hmc2().with_frequency_multiplier(mult)?;
        let r = Engine::new(EngineConfig::preset(SystemPreset::Hetero).with_stack(stack))
            .execute(&RunRequest::new(&[workload]))?
            .into_report();
        println!(
            "  {mult}x: {:.4} s/step, {:.1} J/step",
            r.per_step_time().seconds(),
            r.dynamic_energy.joules() / r.steps as f64
        );
    }
    Ok(())
}
