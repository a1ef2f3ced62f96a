//! Fig. 14: energy with and without RC and OP (normalized to full).

use bench::paper_model;
use criterion::{criterion_group, criterion_main, Criterion};
use pim_models::ModelKind;
use pim_runtime::engine::{Engine, EngineConfig, RunRequest, SystemPreset, WorkloadSpec};
use std::time::Duration;

fn fig14(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig14_software_energy");
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_millis(1200));
    group.sample_size(10);
    for kind in ModelKind::CNNS {
        let model = paper_model(kind);
        let workload = WorkloadSpec {
            graph: model.graph(),
            steps: 2,
            cpu_progr_only: false,
        };
        let full = Engine::new(EngineConfig::preset(SystemPreset::Hetero))
            .execute(&RunRequest::new(&[workload]))
            .unwrap()
            .into_report();
        for cfg in [
            EngineConfig::preset(SystemPreset::HeteroBare),
            EngineConfig::preset(SystemPreset::HeteroRc),
        ] {
            let label = format!("{}/{}", kind.name(), cfg.name);
            group.bench_function(label, |b| {
                b.iter(|| {
                    let r = Engine::new(cfg.clone())
                        .execute(&RunRequest::new(&[workload]))
                        .unwrap()
                        .into_report();
                    r.dynamic_energy / full.dynamic_energy
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, fig14);
criterion_main!(benches);
