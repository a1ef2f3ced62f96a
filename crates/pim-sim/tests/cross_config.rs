//! Cross-configuration invariants: every system configuration, on every
//! zoo model, must produce a well-formed report whose time breakdown is a
//! partition of the makespan — regardless of which code path (engine event
//! core, GPU baseline, Neurocube baseline) produced it. All reports now
//! flow through `pim_runtime::stats::ReportBuilder`, so this pins the
//! shared construction path.

use pim_models::{Model, ModelKind};
use pim_runtime::engine::SystemPreset;
use pim_sim::baselines::simulate_neurocube;
use pim_sim::configs::{simulate, SystemConfig};

#[test]
fn every_config_on_every_model_yields_a_partitioned_report() {
    // Small batches keep the sweep fast; the invariant is batch-independent.
    for kind in ModelKind::ALL {
        let model = Model::build_with_batch(kind, 2).unwrap();
        let mut reports = vec![(
            "Neurocube".to_string(),
            simulate_neurocube(&model, 1).unwrap(),
        )];
        for config in SystemPreset::ALL.map(SystemConfig::from) {
            reports.push((
                config.name().to_string(),
                simulate(&model, &config, 1).unwrap(),
            ));
        }
        reports.push((
            "GPU".to_string(),
            simulate(&model, &SystemConfig::Gpu, 1).unwrap(),
        ));
        for (name, r) in reports {
            assert!(r.is_well_formed(), "{kind} / {name}: not well formed");
            let (op, dm, sync) = r.breakdown_fractions();
            assert!(
                ((op + dm + sync) - 1.0).abs() < 1e-9,
                "{kind} / {name}: breakdown sums to {}",
                op + dm + sync
            );
        }
    }
}

#[test]
fn fig8_ordering_pim_configurations_beat_cpu() {
    // Fig. 8: on every model the figure evaluates, each PIM configuration
    // (and the full Hetero system in particular) finishes the step faster
    // than the CPU. The claim is made at the paper's batch sizes over
    // steady-state steps.
    for kind in [
        ModelKind::Vgg19,
        ModelKind::AlexNet,
        ModelKind::Dcgan,
        ModelKind::ResNet50,
        ModelKind::InceptionV3,
    ] {
        let model = Model::build(kind).unwrap();
        let cpu = simulate(&model, &SystemPreset::CpuOnly.into(), 2).unwrap();
        for config in [SystemPreset::FixedHost, SystemPreset::Hetero].map(SystemConfig::from) {
            let r = simulate(&model, &config, 2).unwrap();
            assert!(
                r.makespan < cpu.makespan,
                "{kind}: {} ({}s) not faster than CPU ({}s)",
                config.name(),
                r.makespan,
                cpu.makespan
            );
        }
    }
}

#[test]
fn fig10_ordering_hetero_beats_neurocube_by_3x() {
    // Fig. 10 / §VI-C: "at least 3x higher performance and energy
    // efficiency than Neurocube", even on the least compute-intensive
    // model. Evaluated at the paper's batch sizes, where the claim is made.
    for kind in [ModelKind::Dcgan, ModelKind::Vgg19] {
        let model = Model::build(kind).unwrap();
        let nc = simulate_neurocube(&model, 2).unwrap();
        let hetero = simulate(&model, &SystemPreset::Hetero.into(), 2).unwrap();
        assert!(
            nc.makespan / hetero.makespan >= 3.0,
            "{kind}: time ratio {}",
            nc.makespan / hetero.makespan
        );
        assert!(
            nc.dynamic_energy / hetero.dynamic_energy >= 3.0,
            "{kind}: energy ratio {}",
            nc.dynamic_energy / hetero.dynamic_energy
        );
    }
}
