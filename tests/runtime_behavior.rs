//! Integration tests of the runtime's mechanisms across crates: candidate
//! selection feeding the engine, RC/OP ablation ordering, utilization, and
//! the profile-select-schedule path of a training run.

use hetero_pim::models::{Model, ModelKind};
use hetero_pim::runtime::engine::{Engine, EngineConfig, RunRequest, SystemPreset, WorkloadSpec};
use hetero_pim::runtime::profiler::profile_step;
use hetero_pim::runtime::select::select_candidates;

fn workload(model: &Model, steps: usize) -> WorkloadSpec<'_> {
    WorkloadSpec {
        graph: model.graph(),
        steps,
        cpu_progr_only: false,
    }
}

/// Fig. 13: across every CNN, the ablation ordering holds:
/// full <= +RC <= bare, and bare beats the Fixed PIM baseline on the
/// three larger CNNs (the paper's 7%-30% hardware-only gain).
#[test]
fn ablation_ordering_holds_for_every_cnn() {
    for kind in ModelKind::CNNS {
        let model = Model::build(kind).unwrap();
        let run = |cfg: EngineConfig| {
            Engine::new(cfg)
                .execute(&RunRequest::new(&[workload(&model, 2)]))
                .unwrap()
                .into_report()
        };
        let bare = run(EngineConfig::preset(SystemPreset::HeteroBare));
        let rc = run(EngineConfig::preset(SystemPreset::HeteroRc));
        let full = run(EngineConfig::preset(SystemPreset::Hetero));
        assert!(rc.makespan < bare.makespan, "{kind}: RC must help");
        assert!(
            full.makespan.seconds() <= rc.makespan.seconds() * 1.02,
            "{kind}: OP must not hurt"
        );
    }
    for kind in [ModelKind::Vgg19, ModelKind::AlexNet, ModelKind::InceptionV3] {
        let model = Model::build(kind).unwrap();
        let bare = Engine::new(EngineConfig::preset(SystemPreset::HeteroBare))
            .execute(&RunRequest::new(&[workload(&model, 2)]))
            .unwrap()
            .into_report();
        let fixed = Engine::new(EngineConfig::preset(SystemPreset::FixedHost))
            .execute(&RunRequest::new(&[workload(&model, 2)]))
            .unwrap()
            .into_report();
        let gain = fixed.makespan / bare.makespan - 1.0;
        assert!(
            gain > 0.05,
            "{kind}: hetero hardware must beat Fixed PIM by >5% (got {:.1}%)",
            gain * 100.0
        );
    }
}

/// Fig. 15: fixed-function utilization rises monotonically through the
/// ablation and approaches saturation with both techniques on VGG-19.
#[test]
fn utilization_rises_with_rc_and_op() {
    let model = Model::build(ModelKind::Vgg19).unwrap();
    let run = |cfg: EngineConfig, steps| {
        Engine::new(cfg)
            .execute(&RunRequest::new(&[workload(&model, steps)]))
            .unwrap()
            .into_report()
    };
    let bare = run(EngineConfig::preset(SystemPreset::HeteroBare), 2);
    let rc = run(EngineConfig::preset(SystemPreset::HeteroRc), 2);
    let full = run(EngineConfig::preset(SystemPreset::Hetero), 4);
    assert!(bare.ff_utilization < rc.ff_utilization);
    assert!(rc.ff_utilization < full.ff_utilization);
    assert!(
        full.ff_utilization > 0.8,
        "RC+OP should approach saturation, got {:.2}",
        full.ff_utilization
    );
}

/// Step 1 is profiled on the engine's host CPU, the global index selects
/// candidates covering >= 90% of step time, and the engine schedules the
/// remaining steps.
#[test]
fn training_session_end_to_end() {
    for kind in ModelKind::ALL {
        let model = Model::build_with_batch(kind, kind.paper_batch_size().min(16)).unwrap();
        let config = EngineConfig::preset(SystemPreset::Hetero);
        let coverage = config.coverage;
        let engine = Engine::new(config);
        let profile = profile_step(model.graph(), engine.profiling_device()).unwrap();
        let candidates = select_candidates(&profile, coverage);
        assert!(
            candidates.time_coverage >= 0.90,
            "{kind}: coverage {:.2}",
            candidates.time_coverage
        );
        let report = engine
            .execute(&RunRequest::new(&[workload(&model, 2)]))
            .unwrap()
            .into_report();
        assert!(report.is_well_formed(), "{kind}");
    }
}

/// Every configuration produces internally consistent reports across all
/// seven workloads (breakdown sums to makespan, utilization bounded).
#[test]
fn reports_are_well_formed_for_all_models_and_configs() {
    for kind in ModelKind::ALL {
        let model = Model::build_with_batch(kind, 8).unwrap();
        for cfg in [
            EngineConfig::preset(SystemPreset::CpuOnly),
            EngineConfig::preset(SystemPreset::ProgrOnly),
            EngineConfig::preset(SystemPreset::FixedHost),
            EngineConfig::preset(SystemPreset::HeteroBare),
            EngineConfig::preset(SystemPreset::HeteroRc),
            EngineConfig::preset(SystemPreset::Hetero),
        ] {
            let name = cfg.name.clone();
            let r = Engine::new(cfg)
                .execute(&RunRequest::new(&[workload(&model, 2)]))
                .unwrap()
                .into_report();
            assert!(r.is_well_formed(), "{kind} under {name}");
        }
    }
}

/// The operation pipeline respects dependencies: more steps always take
/// more time, but less than proportionally (overlap exists).
#[test]
fn pipeline_amortizes_without_violating_order() {
    let model = Model::build(ModelKind::AlexNet).unwrap();
    let run = |steps| {
        Engine::new(EngineConfig::preset(SystemPreset::Hetero))
            .execute(&RunRequest::new(&[workload(&model, steps)]))
            .unwrap()
            .into_report()
            .makespan
    };
    let one = run(1);
    let four = run(4);
    assert!(four > one);
    assert!(four.seconds() < 4.0 * one.seconds());
}
